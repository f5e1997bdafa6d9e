package extract

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"kfusion/internal/kb"
	"kfusion/internal/wire"
)

// snapshotVersion versions the Compiled wire encoding (see the fusion
// counterpart for the contract). 2: only the primary columns are stored.
const snapshotVersion = 2

// EncodeSnapshot serializes the compiled extraction graph's primary columns —
// the generation counter, the source level, the source, extractor and triple
// key tables, the statement → source and statement → triple columns, and the
// per-statement and per-source extractor lists, which hold the
// first-extraction order no other column recovers. Everything else — items,
// the CSRs, the support counts, the ext→statement incidence and the hit-list
// IDs — is the compile tail's to derive (extendTail), and DecodeSnapshot
// rebuilds it through that tail. The hit-list numbering follows the append
// history, so it is not stored: a decoded graph numbers its lists in
// statement order, as a compile does. The interning index is not serialized;
// the first Append rebuilds it.
func (g *Compiled) EncodeSnapshot(out io.Writer) error {
	w := wire.NewWriter(out)
	w.U8(snapshotVersion)
	w.Int(g.gen)
	w.Bool(g.siteLevel)
	w.Strings(g.sources)
	w.Strings(g.extractors)
	kb.EncodeTriples(w, g.triples)
	w.Int32s(g.stSource)
	w.Int32s(g.stTriple)
	w.Int32s(g.stExtStart)
	w.Int32s(g.stExts)
	w.Int32s(g.srcExtStart)
	w.Int32s(g.srcExts)
	return w.Err()
}

// DecodeSnapshot reconstructs a Compiled from EncodeSnapshot bytes: it reads
// the primary columns, checks them (lengths, IDs, CSR spans, and the
// extractor lists an interning pass produces), and derives the rest through
// the tail every compile runs, over the empty generation — so a decoded graph
// equals the encoded one field for field and is consistent by construction.
// Corrupt input errors instead of panicking. A decoded graph gets a fresh
// token and is nobody's successor.
func DecodeSnapshot(data []byte) (*Compiled, error) {
	r := wire.NewReader(data)
	r.Version(snapshotVersion)
	g := &Compiled{graph: &graph{}}
	g.gen = r.Int()
	g.siteLevel = r.Bool()
	g.sources = r.Strings()
	g.extractors = r.Strings()
	g.triples = kb.DecodeTriples(r)
	g.stSource = r.Int32s()
	g.stTriple = r.Int32s()
	g.stExtStart = r.Int32s()
	g.stExts = r.Int32s()
	g.srcExtStart = r.Int32s()
	g.srcExts = r.Int32s()

	nSt, nExt := len(g.stSource), len(g.extractors)
	r.CheckLen("stTriple", len(g.stTriple), nSt)
	r.CheckIDs("stSource", g.stSource, len(g.sources))
	r.CheckIDs("stTriple", g.stTriple, len(g.triples))
	r.CheckIDs("stExts", g.stExts, nExt)
	r.CheckIDs("srcExts", g.srcExts, nExt)
	r.CheckCSR("stExtStart", g.stExtStart, nSt, len(g.stExts))
	r.CheckCSR("srcExtStart", g.srcExtStart, len(g.sources), len(g.srcExts))
	err := r.Err()
	if err == nil {
		err = g.checkExtractorLists()
	}
	if err != nil {
		return nil, fmt.Errorf("extract: snapshot: %w", err)
	}
	// idx stays nil: the first Append rebuilds it from the graph.
	g.extendTail(&Compiled{graph: &graph{}}, &extractIndex{}, &extLists{}, &extLists{}, nil, nil, 0)
	return g, nil
}

// checkExtractorLists reports an error unless the extractor lists are ones an
// interning pass produces: no list names an extractor twice, and a source
// lists exactly the extractors its statements list. The ext→statement
// incidence the tail derives holds, per statement, its source's extractors,
// flagged where the statement's list names them, so lists outside that
// relation would lose hits or invent misses; its size is bounded here too,
// before the tail would refuse it.
func (g *Compiled) checkExtractorLists() error {
	seenSrc, seenSt := unseen(len(g.extractors)), unseen(len(g.extractors))
	distinct := func(seen, row []int32, id int32) bool {
		for _, x := range row {
			if seen[x] == id {
				return false
			}
			seen[x] = id
		}
		return true
	}
	for s := range g.sources {
		if !distinct(seenSrc, g.SourceExtractors(int32(s)), int32(s)) {
			return fmt.Errorf("source %d lists an extractor twice", s)
		}
	}
	covered := make([]bool, len(g.srcExts)) // a source's entry some statement names
	incidence := int64(0)
	for si, s := range g.stSource {
		exts := g.StatementExtractors(int32(si))
		if !distinct(seenSt, exts, int32(si)) {
			return fmt.Errorf("statement %d lists an extractor twice", si)
		}
		for _, x := range exts {
			k := slices.Index(g.SourceExtractors(s), x)
			if k < 0 {
				return fmt.Errorf("statement %d names extractor %d, which its source does not list", si, x)
			}
			covered[int(g.srcExtStart[s])+k] = true
		}
		incidence += int64(len(g.SourceExtractors(s)))
	}
	if k := slices.Index(covered, false); k >= 0 {
		return fmt.Errorf("extractor %d is listed for a source none of whose statements it extracted", g.srcExts[k])
	}
	if incidence > math.MaxInt32 {
		return errors.New("the ext→statement incidence exceeds the int32 CSR offset space")
	}
	return nil
}
