package fusion

import (
	"fmt"
	"io"

	"kfusion/internal/kb"
	"kfusion/internal/wire"
)

// snapshotVersion versions the Compiled wire encoding. Bump on any layout
// change; DecodeSnapshot rejects mismatches so a store written by a newer
// binary degrades to recompile instead of misparsing.
const snapshotVersion = 1

// EncodeSnapshot serializes the compiled claim graph — every dense ID table
// and CSR span verbatim, no recomputation on decode — so a restored graph is
// field-identical to the encoded one and Append/Fuse behave bit-identically.
// The encoding is canonical: one graph always produces the same bytes.
//
// The interning index (the Append byproduct) is NOT serialized; a decoded
// generation rebuilds it on first Append (see rebuildIndex), trading one linear
// rebuild for a format free of map iteration order.
func (c *Compiled) EncodeSnapshot(out io.Writer) error {
	g := c.g
	w := wire.NewWriter(out)
	w.U8(snapshotVersion)
	w.Int(c.gen)

	// Key tables.
	w.Strings(g.provKeys)
	w.Strings(g.extKeys)
	kb.EncodeTriples(w, g.triples)
	kb.EncodeItems(w, g.items)

	// Per-claim columns.
	w.F64s(g.confOfClaim)
	w.Int32s(g.extOfClaim)
	w.Int32s(g.provOfClaim)
	w.Int32s(g.tripleOfClaim)
	w.Int32s(g.localOfClaim)

	// Item and triple structure.
	w.Int32s(g.itemClaimStart)
	w.Int32s(g.itemClaims)
	w.Int32s(g.itemCandStart)
	w.Int32s(g.itemCands)
	w.Int32s(g.itemOfTriple)
	w.Int32s(g.localOfTriple)
	w.Int32s(g.tripleClaimStart)
	w.Int32s(g.tripleClaims)
	w.Int32s(g.tripleExtractors)

	// Provenance structure.
	w.Int32s(g.provClaimStart)
	w.Int32s(g.provClaims)

	w.Int(g.maxCandidates)
	return w.Err()
}

// DecodeSnapshot reconstructs a Compiled from EncodeSnapshot bytes. Every
// length, ID and CSR span is validated before use, so corrupt or truncated
// input returns an error instead of panicking; the checks make the function
// safe as a fuzz target over raw bytes.
func DecodeSnapshot(data []byte) (*Compiled, error) {
	r := wire.NewReader(data)
	r.Version(snapshotVersion)
	gen := r.Int()

	g := &graph{}
	g.provKeys = r.Strings()
	g.extKeys = r.Strings()
	g.triples = kb.DecodeTriples(r)
	g.items = kb.DecodeItems(r)

	g.confOfClaim = r.F64s()
	g.extOfClaim = r.Int32s()
	g.provOfClaim = r.Int32s()
	g.tripleOfClaim = r.Int32s()
	g.localOfClaim = r.Int32s()

	g.itemClaimStart = r.Int32s()
	g.itemClaims = r.Int32s()
	g.itemCandStart = r.Int32s()
	g.itemCands = r.Int32s()
	g.itemOfTriple = r.Int32s()
	g.localOfTriple = r.Int32s()
	g.tripleClaimStart = r.Int32s()
	g.tripleClaims = r.Int32s()
	g.tripleExtractors = r.Int32s()

	g.provClaimStart = r.Int32s()
	g.provClaims = r.Int32s()
	g.maxCandidates = r.Int()

	n := g.numClaims()
	nTriples := len(g.triples)
	nItems := len(g.items)
	nProvs := len(g.provKeys)
	r.CheckLen("extOfClaim", len(g.extOfClaim), n)
	r.CheckLen("provOfClaim", len(g.provOfClaim), n)
	r.CheckLen("tripleOfClaim", len(g.tripleOfClaim), n)
	r.CheckLen("localOfClaim", len(g.localOfClaim), n)
	r.CheckLen("itemOfTriple", len(g.itemOfTriple), nTriples)
	r.CheckLen("localOfTriple", len(g.localOfTriple), nTriples)
	r.CheckLen("tripleExtractors", len(g.tripleExtractors), nTriples)
	r.CheckIDs("extOfClaim", g.extOfClaim, len(g.extKeys))
	r.CheckIDs("provOfClaim", g.provOfClaim, nProvs)
	r.CheckIDs("tripleOfClaim", g.tripleOfClaim, nTriples)
	r.CheckIDs("itemOfTriple", g.itemOfTriple, nItems)
	r.CheckIDs("itemClaims", g.itemClaims, n)
	r.CheckIDs("itemCands", g.itemCands, nTriples)
	r.CheckIDs("tripleClaims", g.tripleClaims, n)
	r.CheckIDs("provClaims", g.provClaims, n)
	r.CheckCSR("itemClaimStart", g.itemClaimStart, nItems, len(g.itemClaims))
	r.CheckCSR("itemCandStart", g.itemCandStart, nItems, len(g.itemCands))
	r.CheckCSR("tripleClaimStart", g.tripleClaimStart, nTriples, len(g.tripleClaims))
	r.CheckCSR("provClaimStart", g.provClaimStart, nProvs, len(g.provClaims))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("fusion: snapshot: %w", err)
	}

	// Deep structural invariants. The fusion engine indexes candidate scratch
	// by these relations without bounds checks, so a decoded graph must
	// satisfy them exactly, not just stay in ID range.
	for t := 0; t < nTriples; t++ {
		i := g.itemOfTriple[t]
		lo, hi := g.itemCandStart[i], g.itemCandStart[i+1]
		l := g.localOfTriple[t]
		if l < 0 || l >= hi-lo || g.itemCands[lo+l] != int32(t) {
			return nil, fmt.Errorf("fusion: snapshot: triple %d has inconsistent candidate position", t)
		}
	}
	for i := 0; i < nItems; i++ {
		for _, tc := range g.itemCands[g.itemCandStart[i]:g.itemCandStart[i+1]] {
			if g.itemOfTriple[tc] != int32(i) {
				return nil, fmt.Errorf("fusion: snapshot: triple %d listed under item %d, belongs to %d", tc, i, g.itemOfTriple[tc])
			}
		}
		for _, cl := range g.itemClaims[g.itemClaimStart[i]:g.itemClaimStart[i+1]] {
			if g.itemOfTriple[g.tripleOfClaim[cl]] != int32(i) {
				return nil, fmt.Errorf("fusion: snapshot: claim %d grouped under item %d, belongs to %d", cl, i, g.itemOfTriple[g.tripleOfClaim[cl]])
			}
		}
	}
	for i := 0; i < n; i++ {
		if g.localOfClaim[i] != g.localOfTriple[g.tripleOfClaim[i]] {
			return nil, fmt.Errorf("fusion: snapshot: claim %d candidate offset disagrees with its triple", i)
		}
	}
	maxCand := 0
	for i := 0; i < nItems; i++ {
		if c := int(g.itemCandStart[i+1] - g.itemCandStart[i]); c > maxCand {
			maxCand = c
		}
	}
	if g.maxCandidates != maxCand {
		return nil, fmt.Errorf("fusion: snapshot: maxCandidates %d, computed %d", g.maxCandidates, maxCand)
	}

	// idx stays nil: the first Append rebuilds it from the graph.
	return &Compiled{g: g, gen: gen}, nil
}
