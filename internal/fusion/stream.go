package fusion

import (
	"slices"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// ClaimStream incrementally flattens an append-only extraction feed into
// claims under one provenance granularity. Claims deduplicates (provenance,
// triple) pairs across the whole stream, so converting an appended batch in
// isolation would re-emit pairs the prefix already asserted; the stream
// carries the dedup set forward instead, and Add returns exactly the claims
// a full Claims call over the concatenated feed would have appended:
//
//	s := fusion.NewClaimStream(gran)
//	g := fusion.MustCompile(s.Add(batch0))
//	g = g.MustAppend(s.Add(batch1)) // == MustCompile(Claims(batch0+batch1))
//
// The set holds IDs, not keys: the stream interns every provenance key and
// every triple into a dense int32 ID through its own intern tables (the
// compile loop's, csr.InternTable), in first-occurrence order, and a pair is one
// packed (provenance ID, triple ID) word in an open-addressed set. A record
// therefore costs one hash of its triple, one word probe, and — when its
// provenance differs from the previous record's — one hash of the key; no
// four-string struct is hashed, compared or copied on growth. The ID spaces
// are the ones a compile of the emitted claims assigns (a key's first record
// is its first claim), which is what lets SeedClaimStream reload them from a
// graph's columns.
//
// Every claim of one provenance carries the same Prov string — the one the
// stream interned — so the compile loop's last-seen compare on consecutive
// claims is a pointer compare.
//
// A ClaimStream is single-writer state: Add calls must not race.
type ClaimStream struct {
	gran Granularity

	provKeys []string    // provenance ID -> key, first-occurrence order
	triples  []kb.Triple // triple ID -> triple, first-occurrence order
	prov     csr.InternTable[string]
	tri      csr.InternTable[kb.Triple]
	seen     csr.PairTable // a set (csr.NewPairSet)
	n        int

	// last is the record lastProv was interned from. A feed lists a page's
	// extractions together, so most records share their provenance with the
	// one before and reuse its ID instead of building and hashing an equal
	// key. lastProv is -1 until the first record.
	last     extract.Extraction
	lastProv int32
}

// NewClaimStream returns an empty stream flattening under g.
func NewClaimStream(g Granularity) *ClaimStream { return newClaimStream(g, 1024) }

// newClaimStream sizes the stream for a feed of about sizeHint records, by
// the priors the compile loop presizes with: distinct provenances and triples
// run up to about half the claims.
func newClaimStream(g Granularity, sizeHint int) *ClaimStream {
	return &ClaimStream{
		gran:     g,
		prov:     csr.NewInternTable[string](sizeHint/2, nil),
		tri:      csr.NewInternTable(sizeHint/2, csr.HashTriple),
		seen:     csr.NewPairSet(sizeHint),
		lastProv: -1,
	}
}

// Granularity reports the stream's provenance granularity.
func (s *ClaimStream) Granularity() Granularity { return s.gran }

// NumClaims reports the total claims emitted so far.
func (s *ClaimStream) NumClaims() int { return s.n }

// Add flattens one appended extraction batch and returns only the claims new
// to the stream, in batch order. Appending the returned slices in call order
// reproduces Claims over the concatenated feed exactly.
func (s *ClaimStream) Add(xs []extract.Extraction) []Claim {
	out := make([]Claim, 0, len(xs))
	for i := range xs {
		x := &xs[i]
		if s.lastProv < 0 || !s.gran.sameKey(x, &s.last) {
			s.last, s.lastProv = *x, s.internProv(s.gran.Key(*x))
		}
		h := csr.HashTriple(x.Triple)
		tid := s.tri.ID(h, x.Triple, s.triples)
		if tid < 0 {
			tid = int32(len(s.triples))
			s.triples = append(s.triples, x.Triple)
			s.tri.Insert(h, tid)
		}
		if !s.seen.Add(s.lastProv, tid) {
			continue
		}
		out = append(out, Claim{Triple: x.Triple, Prov: s.provKeys[s.lastProv], Conf: x.Confidence, Extractor: x.Extractor})
	}
	s.n += len(out)
	return out
}

// internProv returns key's provenance ID, assigning the next one to a key the
// stream has not seen. An equal key built again is dropped here: the interned
// string is the one every claim carries.
func (s *ClaimStream) internProv(key string) int32 {
	h := s.prov.Hash(key)
	id := s.prov.ID(h, key, s.provKeys)
	if id < 0 {
		id = int32(len(s.provKeys))
		s.provKeys = append(s.provKeys, key)
		s.prov.Insert(h, id)
	}
	return id
}

// SeedClaimStream rebuilds the claim-stream dedup state of an append-only
// feed from a restored generation: the compiled claims are exactly the
// (provenance, triple) pairs the uncrashed stream had seen, so Add calls on
// the returned stream continue it bit-identically. The graph already holds
// the stream's ID spaces — its provenance-key and triple columns, and each
// claim's pair of IDs — so the reload hashes each distinct key once and each
// claim's ID pair as a word, and no string per claim. The key columns are
// shared with the graph until the stream's first new key: they are
// cap-clipped here, so that append copies them.
func SeedClaimStream(g Granularity, c *Compiled) *ClaimStream {
	cg := c.g
	s := &ClaimStream{
		gran:     g,
		provKeys: slices.Clip(cg.provKeys),
		triples:  slices.Clip(cg.triples),
		prov:     csr.BuildInternTable(cg.provKeys, nil),
		tri:      csr.BuildInternTable(cg.triples, csr.HashTriple),
		seen:     csr.NewPairSet(len(cg.claims)),
		n:        len(cg.claims),
		lastProv: -1,
	}
	for i, p := range cg.provOfClaim {
		s.seen.Add(p, cg.tripleOfClaim[i])
	}
	return s
}
