package fusion

import (
	"slices"

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
// compile loop's, interntab.go), in first-occurrence order, and a pair is one
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
	prov     internTable[string]
	tri      internTable[kb.Triple]
	seen     pairSet
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
		prov:     newInternTable[string](sizeHint/2, nil),
		tri:      newInternTable(sizeHint/2, hashTriple),
		seen:     newPairSet(sizeHint),
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
		h := hashTriple(x.Triple)
		tid := s.tri.id(h, x.Triple, s.triples)
		if tid < 0 {
			tid = int32(len(s.triples))
			s.triples = append(s.triples, x.Triple)
			s.tri.insert(h, tid)
		}
		if !s.seen.add(s.lastProv, tid) {
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
	h := s.prov.hash(key)
	id := s.prov.id(h, key, s.provKeys)
	if id < 0 {
		id = int32(len(s.provKeys))
		s.provKeys = append(s.provKeys, key)
		s.prov.insert(h, id)
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
		prov:     buildInternTable(cg.provKeys, nil),
		tri:      buildInternTable(cg.triples, hashTriple),
		seen:     newPairSet(len(cg.claims)),
		n:        len(cg.claims),
		lastProv: -1,
	}
	for i, p := range cg.provOfClaim {
		s.seen.add(p, cg.tripleOfClaim[i])
	}
	return s
}

// pairSet is an open-addressed set of (provenance ID, triple ID) pairs, each
// packed into one word. A slot holds the word plus one, so zero marks an
// empty slot; IDs are non-negative int32s, which leaves the top bit clear and
// the increment cannot wrap.
type pairSet struct {
	slots []uint64
	mask  uint64
	n     int
}

// newPairSet returns a set that will not grow before sizeHint pairs.
func newPairSet(sizeHint int) pairSet {
	size := slotsFor(sizeHint)
	return pairSet{slots: make([]uint64, size), mask: uint64(size - 1)}
}

// add inserts the pair and reports whether it was absent.
func (p *pairSet) add(prov, tri int32) bool {
	if (p.n+1)*4 > len(p.slots)*3 {
		old := p.slots
		*p = pairSet{slots: make([]uint64, 2*len(old)), mask: uint64(2*len(old) - 1)}
		for _, w := range old {
			if w != 0 {
				p.put(w)
			}
		}
	}
	return p.put((uint64(uint32(prov))<<32 | uint64(uint32(tri))) + 1)
}

// put slots the word w unless it is there already, and reports whether it
// was absent. The caller has made room.
func (p *pairSet) put(w uint64) bool {
	for i := mixWord(mixPrime, w) & p.mask; ; i = (i + 1) & p.mask {
		switch p.slots[i] {
		case w:
			return false
		case 0:
			p.slots[i] = w
			p.n++
			return true
		}
	}
}
