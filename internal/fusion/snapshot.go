package fusion

import (
	"fmt"
	"io"

	"kfusion/internal/kb"
	"kfusion/internal/wire"
)

// snapshotVersion versions the Compiled wire encoding. Bump on any layout
// change; DecodeSnapshot rejects mismatches so a store written by a newer
// binary degrades to recompile instead of misparsing. 2: only the primary
// columns are stored.
const snapshotVersion = 2

// EncodeSnapshot serializes the compiled claim graph's primary columns — the
// generation counter, the provenance, extractor and triple key tables, and
// the four per-claim columns — which is everything a compile cannot derive
// from the claims. The data items, the CSRs and the support counts are the
// compile tail's to derive, and DecodeSnapshot rebuilds them through it. The
// encoding is canonical: one graph always produces the same bytes.
//
// The interning index (the Append byproduct) is NOT serialized; a decoded
// generation rebuilds it on first Append (see rebuildIndex), trading one linear
// rebuild for a format free of map iteration order.
func (c *Compiled) EncodeSnapshot(out io.Writer) error {
	g := c.g
	w := wire.NewWriter(out)
	w.U8(snapshotVersion)
	w.Int(c.gen)
	w.Strings(g.provKeys)
	w.Strings(g.extKeys)
	kb.EncodeTriples(w, g.triples)
	w.F64s(g.confOfClaim)
	w.Int32s(g.extOfClaim)
	w.Int32s(g.provOfClaim)
	w.Int32s(g.tripleOfClaim)
	return w.Err()
}

// DecodeSnapshot reconstructs a Compiled from EncodeSnapshot bytes: it reads
// the primary columns, checks their lengths and IDs, and derives the rest of
// the graph through the tail every compile runs (extendTail), over the empty
// generation — so a decoded graph equals the encoded one field for field and
// is consistent by construction. Corrupt or truncated input returns an error
// instead of panicking; the function is safe as a fuzz target over raw bytes.
func DecodeSnapshot(data []byte) (*Compiled, error) {
	r := wire.NewReader(data)
	r.Version(snapshotVersion)
	gen := r.Int()

	g := &graph{}
	g.provKeys = r.Strings()
	g.extKeys = r.Strings()
	g.triples = kb.DecodeTriples(r)
	g.confOfClaim = r.F64s()
	g.extOfClaim = r.Int32s()
	g.provOfClaim = r.Int32s()
	g.tripleOfClaim = r.Int32s()

	n := g.numClaims()
	r.CheckLen("extOfClaim", len(g.extOfClaim), n)
	r.CheckLen("provOfClaim", len(g.provOfClaim), n)
	r.CheckLen("tripleOfClaim", len(g.tripleOfClaim), n)
	r.CheckIDs("extOfClaim", g.extOfClaim, len(g.extKeys))
	r.CheckIDs("provOfClaim", g.provOfClaim, len(g.provKeys))
	r.CheckIDs("tripleOfClaim", g.tripleOfClaim, len(g.triples))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("fusion: snapshot: %w", err)
	}
	// idx stays nil: the first Append rebuilds it from the graph.
	return &Compiled{g: extendTail(&graph{}, g, &claimIndex{}, 0), gen: gen}, nil
}
