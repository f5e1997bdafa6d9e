package extract

import (
	"fmt"
	"io"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
	"kfusion/internal/wire"
)

// snapshotVersion versions the Compiled wire encoding (see the fusion
// counterpart for the contract).
const snapshotVersion = 1

// EncodeSnapshot serializes the compiled extraction graph — every ID table
// and CSR span verbatim — so a decoded graph is field-identical and
// Append/FuseCompiled behave bit-identically. extBlocks is the only derived
// field: it is a pure function of extStStart and is rebuilt on decode. The
// interning index is not serialized; the first Append rebuilds it.
func (g *Compiled) EncodeSnapshot(out io.Writer) error {
	w := wire.NewWriter(out)
	w.U8(snapshotVersion)
	w.Int(g.gen)
	w.Bool(g.siteLevel)

	w.Strings(g.sources)
	w.Strings(g.extractors)
	kb.EncodeTriples(w, g.triples)
	kb.EncodeItems(w, g.items)

	w.Int32s(g.stSource)
	w.Int32s(g.stTriple)
	w.Int32s(g.stExtStart)
	w.Int32s(g.stExts)

	w.Int32s(g.srcExtStart)
	w.Int32s(g.srcExts)
	w.Int32s(g.srcStStart)
	w.Int32s(g.srcSts)

	w.Int32s(g.tripleStStart)
	w.Int32s(g.tripleSts)
	w.Int32s(g.tripleExts)
	w.Int32s(g.itemOfTriple)
	w.Int32s(g.itemTripleStart)
	w.Int32s(g.itemTriples)
	w.Int32s(g.itemStatements)

	w.Int32s(g.extStStart)
	w.Int32s(g.extSts)
	hits := make([]bool, len(g.extHitsF)) // the flags go out one byte each
	for i, h := range g.extHitsF {
		hits[i] = h == 1
	}
	w.Bools(hits)

	w.Int(g.maxItemTriples)
	return w.Err()
}

// DecodeSnapshot reconstructs a Compiled from EncodeSnapshot bytes, with
// every length, ID and CSR span validated first so corrupt input errors
// instead of panicking.
func DecodeSnapshot(data []byte) (*Compiled, error) {
	r := wire.NewReader(data)
	r.Version(snapshotVersion)
	g := &Compiled{graph: &graph{}}
	g.gen = r.Int()
	g.siteLevel = r.Bool()

	g.sources = r.Strings()
	g.extractors = r.Strings()
	g.triples = kb.DecodeTriples(r)
	g.items = kb.DecodeItems(r)

	g.stSource = r.Int32s()
	g.stTriple = r.Int32s()
	g.stExtStart = r.Int32s()
	g.stExts = r.Int32s()

	g.srcExtStart = r.Int32s()
	g.srcExts = r.Int32s()
	g.srcStStart = r.Int32s()
	g.srcSts = r.Int32s()

	g.tripleStStart = r.Int32s()
	g.tripleSts = r.Int32s()
	g.tripleExts = r.Int32s()
	g.itemOfTriple = r.Int32s()
	g.itemTripleStart = r.Int32s()
	g.itemTriples = r.Int32s()
	g.itemStatements = r.Int32s()

	g.extStStart = r.Int32s()
	g.extSts = r.Int32s()
	hits := r.Bools()

	g.maxItemTriples = r.Int()

	nSrc := len(g.sources)
	nExt := len(g.extractors)
	nTriples := len(g.triples)
	nItems := len(g.items)
	nSt := len(g.stSource)
	r.CheckLen("stTriple", len(g.stTriple), nSt)
	r.CheckLen("itemOfTriple", len(g.itemOfTriple), nTriples)
	r.CheckLen("tripleExts", len(g.tripleExts), nTriples)
	r.CheckLen("itemStatements", len(g.itemStatements), nItems)
	r.CheckLen("extHits", len(hits), len(g.extSts))
	r.CheckIDs("stSource", g.stSource, nSrc)
	r.CheckIDs("stTriple", g.stTriple, nTriples)
	r.CheckIDs("stExts", g.stExts, nExt)
	r.CheckIDs("srcExts", g.srcExts, nExt)
	r.CheckIDs("srcSts", g.srcSts, nSt)
	r.CheckIDs("tripleSts", g.tripleSts, nSt)
	r.CheckIDs("itemOfTriple", g.itemOfTriple, nItems)
	r.CheckIDs("itemTriples", g.itemTriples, nTriples)
	r.CheckIDs("extSts", g.extSts, nSt)
	r.CheckCSR("stExtStart", g.stExtStart, nSt, len(g.stExts))
	r.CheckCSR("srcExtStart", g.srcExtStart, nSrc, len(g.srcExts))
	r.CheckCSR("srcStStart", g.srcStStart, nSrc, len(g.srcSts))
	r.CheckCSR("tripleStStart", g.tripleStStart, nTriples, len(g.tripleSts))
	r.CheckCSR("itemTripleStart", g.itemTripleStart, nItems, len(g.itemTriples))
	r.CheckCSR("extStStart", g.extStStart, nExt, len(g.extSts))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("extract: snapshot: %w", err)
	}

	if len(g.extStStart) > 0 {
		g.extBlocks = csr.SpanBlocks(g.extStStart)
	}
	g.extHitsF = make([]float64, len(hits))
	for i, h := range hits {
		if h {
			g.extHitsF[i] = 1
		}
	}
	g.token = graphSeq.Add(1)
	// idx stays nil: the first Append rebuilds it from the graph.
	return g, nil
}
