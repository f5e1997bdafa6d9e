package extract

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
	"kfusion/internal/randx"
	"kfusion/internal/web"
	"kfusion/internal/world"
)

// Suite bundles the 12 extractors over one world, with the shared components
// wired the way the paper describes: "a lot of extractors employ the same
// entity linkage components, [so] they may make common linkage mistakes"
// (§5.2). Nine extractors share the main linker; TXT4, DOM3 and TBL2 use a
// better one — which is also why those three are the most accurate rows of
// Table 2.
type Suite struct {
	Extractors []*Extractor
	Seed       int64

	// LinkerMain and LinkerAlt are exposed for tests and diagnostics.
	LinkerMain *Linker
	LinkerAlt  *Linker
}

// NewSuite builds the 12-extractor fleet over w. The per-extractor
// parameters are calibrated so that measured accuracies land near Table 2's
// spread (0.09–0.78) with the same ordering.
func NewSuite(w *world.World, seed int64) *Suite {
	linkMain := NewLinker("linker-main", 0.07, w)
	linkAlt := NewLinker("linker-alt", 0.02, w)

	mapTXT := NewSchemaMapper("map-txt", 0.07, w)
	mapTXT4 := NewSchemaMapper("map-txt4", 0.03, w)
	mapDOM := NewSchemaMapper("map-dom", 0.06, w)
	mapDOM2 := NewSchemaMapper("map-dom2", 0.12, w)
	mapTBL1 := NewSchemaMapper("map-tbl1", 0.28, w)
	mapTBL2 := NewSchemaMapper("map-tbl2", 0.03, w)
	mapANO := NewSchemaMapper("map-ano", 0.2, w)

	txt := []web.ContentType{web.TXT}
	dom := []web.ContentType{web.DOM}
	domTbl := []web.ContentType{web.DOM, web.TBL}
	tbl := []web.ContentType{web.TBL}
	ano := []web.ContentType{web.ANO}
	normal := []string{"directory", "commerce", "data"}

	s := &Suite{Seed: seed, LinkerMain: linkMain, LinkerAlt: linkAlt}
	s.Extractors = []*Extractor{
		// TXT1: bespoke implementation, runs on all Webpages; mid accuracy,
		// informative confidences (Figure 21).
		{Name: "TXT1", ContentTypes: txt, Recall: 0.7, Patterns: PatTemplate, PatternCoverage: 0.8,
			ToxicPatternRate: 0.05, TripleIDRate: 0.65, Linker: linkMain, Mapper: mapTXT, Conf: ConfInformative},
		// TXT2: same framework as TXT3/4 but on "normal" Webpages; noisy.
		{Name: "TXT2", ContentTypes: txt, SiteClasses: normal, Recall: 0.55, Patterns: PatTemplate, PatternCoverage: 0.6,
			ToxicPatternRate: 0.12, TripleIDRate: 1.1, Linker: linkMain, Mapper: mapTXT, Conf: ConfInformative},
		// TXT3: newswire.
		{Name: "TXT3", ContentTypes: txt, SiteClasses: []string{"news"}, Recall: 0.6, Patterns: PatTemplate, PatternCoverage: 0.65,
			ToxicPatternRate: 0.08, TripleIDRate: 1.0, Linker: linkMain, Mapper: mapTXT, Conf: ConfInformative},
		// TXT4: Wikipedia; clean text and the better linker — the most
		// accurate extractor.
		{Name: "TXT4", ContentTypes: txt, SiteClasses: []string{"wiki"}, Recall: 0.65, Patterns: PatTemplate, PatternCoverage: 0.7,
			ToxicPatternRate: 0.01, TripleIDRate: 0.10, Linker: linkAlt, Mapper: mapTXT4, Conf: ConfInformative},
		// DOM1: wrapper-style patterns per (site class, attribute); the
		// volume leader. Also reads Web tables (they are DOM too).
		{Name: "DOM1", ContentTypes: domTbl, Recall: 0.85, Patterns: PatSiteAttr, PatternCoverage: 0.9,
			ToxicPatternRate: 0.07, TripleIDRate: 0.48, Linker: linkMain, Mapper: mapDOM, Conf: ConfInformative},
		// DOM2: runs everywhere with no patterns; huge volume, very low
		// precision, bimodal confidences.
		{Name: "DOM2", ContentTypes: dom, Recall: 0.6, TripleIDRate: 1.6, Linker: linkMain, Mapper: mapDOM2, Conf: ConfBimodal},
		// DOM3: entity-type focused, better linker.
		{Name: "DOM3", ContentTypes: dom, Recall: 0.5, TripleIDRate: 0.22, Linker: linkAlt, Mapper: mapDOM, Conf: ConfInformative, EntityPredsOnly: true},
		// DOM4: entity-type focused, noisier sibling of DOM3.
		{Name: "DOM4", ContentTypes: dom, Recall: 0.55, TripleIDRate: 1.0, Linker: linkMain, Mapper: mapDOM, Conf: ConfInformative, EntityPredsOnly: true},
		// DOM5: Wikipedia-only, no confidences, weak.
		{Name: "DOM5", ContentTypes: dom, SiteClasses: []string{"wiki"}, Recall: 0.6, TripleIDRate: 1.5, Linker: linkMain, Mapper: mapDOM, Conf: ConfNone},
		// TBL1: schema mapping is its weak point; misleading confidences.
		{Name: "TBL1", ContentTypes: tbl, Recall: 0.55, TripleIDRate: 0.62, Linker: linkMain, Mapper: mapTBL1, Conf: ConfMisleading},
		// TBL2: better schema mapping, no confidences.
		{Name: "TBL2", ContentTypes: tbl, Recall: 0.6, TripleIDRate: 0.12, Linker: linkAlt, Mapper: mapTBL2, Conf: ConfNone},
		// ANO: semi-automatic itemprop mapping; uninformative confidences.
		{Name: "ANO", ContentTypes: ano, Recall: 0.8, TripleIDRate: 0.66, Linker: linkMain, Mapper: mapANO, Conf: ConfUninformative},
	}
	return s
}

// Names returns the extractor names in suite order.
func (s *Suite) Names() []string {
	out := make([]string, len(s.Extractors))
	for i, e := range s.Extractors {
		out[i] = e.Name
	}
	return out
}

// ByName returns the extractor with the given name, or nil.
func (s *Suite) ByName(name string) *Extractor {
	for _, e := range s.Extractors {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// ContentTypeOf returns the primary content type an extractor targets,
// which Figure 19 uses to split extractor pairs into same-type vs
// different-type.
func (s *Suite) ContentTypeOf(name string) web.ContentType {
	e := s.ByName(name)
	if e == nil || len(e.ContentTypes) == 0 {
		return web.TXT
	}
	return e.ContentTypes[0]
}

// Run extracts the whole corpus with all 12 extractors. The result is
// deterministic for a given (world, corpus, seed) and sorted by (extractor,
// URL, triple) for stable downstream processing.
//
// The rows are made in that order, not sorted into it. Pages are extracted
// in URL order on GOMAXPROCS workers, each over a contiguous range of that
// order, and each (extractor, page) call sorts its own few rows by triple,
// so a worker's rows of one extractor come in (URL, triple) order. One
// stable scatter by extractor name then places every worker's rows of an
// extractor after the previous workers' in the exact-size result. The output
// is the same at every worker count: each (extractor, page) pair draws from
// its own stream — the one root.SplitN(name+"|"+URL, page index) returns,
// derived from a Label hash of the name taken once per run and drawn through
// one reused Source per worker, beside a second the shared linkers and
// mappers reseed per name — the world, linkers and mappers are read-only,
// and the key is a total order on the output: an extractor emits a triple at
// most once per page and a page's URL is unique in the corpus, so no two
// extractions share (extractor, URL, triple).
func (s *Suite) Run(w *world.World, corpus *web.Corpus) []Extraction {
	root := randx.New(s.Seed)
	labels := make([]randx.Label, len(s.Extractors))
	rank := make([]int, len(s.Extractors)) // the extractor's place in name order
	for ei, e := range s.Extractors {
		labels[ei] = root.Label(e.Name).Then("|")
		for _, o := range s.Extractors {
			if o.Name < e.Name {
				rank[ei]++
			}
		}
	}
	pages := corpus.Pages
	order := make([]int, len(pages)) // page indexes in URL order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(pages[a].URL, pages[b].URL) })

	// A worker's rows, in chunks that are filled and never regrown, and
	// their extractor ranks as runs: one run per (extractor, page) call that
	// emitted rows. A page starts a new chunk when its bound does not fit,
	// so a run never spans two chunks.
	type run struct{ rank, n int }
	type part struct {
		chunks [][]Extraction
		runs   []run
		at     []int // rows per rank; then where the scatter writes that rank's next row
	}
	parts := make([]part, runtime.GOMAXPROCS(0))
	for wk := range parts {
		parts[wk].at = make([]int, len(s.Extractors))
	}
	csr.ParallelRange(len(order), len(parts), func(wk, lo, hi int) {
		p := &parts[wk]
		src, scratch := randx.New(0), randx.New(0)
		var view pageView
		var rows []Extraction
		for _, pi := range order[lo:hi] {
			view.read(pages[pi])
			if need := s.maxExtractions(&view); need > cap(rows)-len(rows) {
				if len(rows) > 0 {
					p.chunks = append(p.chunks, rows)
				}
				rows = make([]Extraction, 0, max(need, runChunkRows))
			}
			for ei, e := range s.Extractors {
				if !e.runsOn(view.Site) {
					continue
				}
				src.Reset(labels[ei].Then(view.URL).Seed(int64(pi)))
				start := len(rows)
				rows = e.appendExtractions(rows, w, &view, src, scratch)
				if n := len(rows) - start; n > 0 {
					slices.SortFunc(rows[start:], compareExtractions)
					p.runs = append(p.runs, run{rank[ei], n})
					p.at[rank[ei]] += n
				}
			}
		}
		if len(rows) > 0 {
			p.chunks = append(p.chunks, rows)
		}
	})

	n := 0
	for r := range s.Extractors {
		for wk := range parts {
			c := parts[wk].at[r]
			parts[wk].at[r] = n
			n += c
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Extraction, n)
	csr.ParallelRange(len(parts), len(parts), func(_, lo, hi int) {
		for wk := lo; wk < hi; wk++ {
			p := &parts[wk]
			var rows []Extraction
			for _, r := range p.runs {
				if len(rows) == 0 {
					rows, p.chunks = p.chunks[0], p.chunks[1:]
				}
				copy(out[p.at[r.rank]:], rows[:r.n])
				p.at[r.rank] += r.n
				rows = rows[r.n:]
			}
		}
	})
	return out
}

// runChunkRows is the size of the row chunks Run fills, ≈1 MB: large
// beside a page's rows, small beside a worker's.
const runChunkRows = 8192

// maxExtractions bounds the suite's output on a page: an extractor that runs
// on the page's site emits at most one row per mention of a block it reads.
func (s *Suite) maxExtractions(v *pageView) int {
	n := 0
	for _, e := range s.Extractors {
		if !e.runsOn(v.Site) {
			continue
		}
		for bi := range v.Blocks {
			if e.reads(v.Blocks[bi].Type) {
				n += len(v.Blocks[bi].Mentions)
			}
		}
	}
	return n
}

// extractionLess orders extractions by (extractor, URL, triple), the
// triple by subject, predicate and the object's tagged string form.
func extractionLess(a, b *Extraction) bool {
	if a.Extractor != b.Extractor {
		return a.Extractor < b.Extractor
	}
	if a.URL != b.URL {
		return a.URL < b.URL
	}
	if a.Triple.Subject != b.Triple.Subject {
		return a.Triple.Subject < b.Triple.Subject
	}
	if a.Triple.Predicate != b.Triple.Predicate {
		return a.Triple.Predicate < b.Triple.Predicate
	}
	return objectStringLess(a.Triple.Object, b.Triple.Object)
}

// compareExtractions is extractionLess as the three-way comparison
// slices.SortFunc takes.
func compareExtractions(a, b Extraction) int {
	switch {
	case extractionLess(&a, &b):
		return -1
	case extractionLess(&b, &a):
		return 1
	}
	return 0
}

// objectStringLess reports a.String() < b.String() without building either
// string: the tagged forms differ at the tag when the kinds do, and after it
// compare as the payloads — numbers as their formatted digits, not by value.
func objectStringLess(a, b kb.Object) bool {
	ta, tb := objectTag(a), objectTag(b)
	if ta != tb {
		return ta < tb
	}
	if ta != 'n' {
		return a.Str < b.Str
	}
	var ba, bb [32]byte
	return bytes.Compare(strconv.AppendFloat(ba[:0], a.Num, 'g', -1, 64), strconv.AppendFloat(bb[:0], b.Num, 'g', -1, 64)) < 0
}

// objectTag is the first byte of o.String().
func objectTag(o kb.Object) byte {
	switch o.Kind {
	case kb.KindEntity:
		return 'e'
	case kb.KindNumber:
		return 'n'
	default:
		return 's'
	}
}
