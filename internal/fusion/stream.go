package fusion

import "kfusion/internal/extract"

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
// A ClaimStream is single-writer state: Add calls must not race.
type ClaimStream struct {
	gran Granularity
	seen map[provTriple]bool
	n    int
	// last is the record lastKey was built from. A feed lists a page's
	// extractions together, so most records share their provenance with the
	// one before and reuse its key instead of building an equal string.
	last    extract.Extraction
	lastKey string
}

// NewClaimStream returns an empty stream flattening under g.
func NewClaimStream(g Granularity) *ClaimStream { return newClaimStream(g, 1024) }

func newClaimStream(g Granularity, sizeHint int) *ClaimStream {
	return &ClaimStream{gran: g, seen: make(map[provTriple]bool, sizeHint), lastKey: g.Key(extract.Extraction{})}
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
		if !s.gran.sameKey(x, &s.last) {
			s.last, s.lastKey = *x, s.gran.Key(*x)
		}
		// One hash of the 88-byte key: insert, and a set that did not grow
		// had the pair already.
		n := len(s.seen)
		s.seen[provTriple{prov: s.lastKey, triple: x.Triple}] = true
		if len(s.seen) == n {
			continue
		}
		out = append(out, Claim{Triple: x.Triple, Prov: s.lastKey, Conf: x.Confidence, Extractor: x.Extractor})
	}
	s.n += len(out)
	return out
}
