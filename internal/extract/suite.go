package extract

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"

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
// Pages are extracted in parallel on GOMAXPROCS workers, each over a
// contiguous page range; each worker sorts its part and the parts are merged
// in range order. The output is the same at every worker count: each
// (extractor, page) pair draws from its own stream split off the root, the
// world and the shared linkers and mappers are read-only, and the sort key
// is a total order on the output — an extractor emits a triple at most once
// per page and a page's URL is unique in the corpus, so no two extractions
// share (extractor, URL, triple), and the sorted order is the one order
// there is, however the rows were split.
func (s *Suite) Run(w *world.World, corpus *web.Corpus) []Extraction {
	root := randx.New(s.Seed)
	pages := corpus.Pages
	workers := runtime.GOMAXPROCS(0)
	parts := make([][]Extraction, workers)
	csr.ParallelRange(len(pages), workers, func(wk, lo, hi int) {
		views := make([]*pageView, hi-lo)
		bound := 0
		for i := range views {
			views[i] = readPage(pages[lo+i])
			bound += s.maxExtractions(views[i])
		}
		out := make([]Extraction, 0, bound)
		for i, view := range views {
			pi := lo + i
			for _, e := range s.Extractors {
				src := root.SplitN(e.Name+"|"+view.URL, int64(pi))
				out = e.appendExtractions(out, w, view, src)
			}
		}
		sortExtractions(out)
		parts[wk] = out
	})
	return mergeExtractions(parts)
}

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
				n += v.start[bi+1] - v.start[bi]
			}
		}
	}
	return n
}

func sortExtractions(xs []Extraction) {
	sort.Slice(xs, func(i, j int) bool { return extractionLess(&xs[i], &xs[j]) })
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

// mergeExtractions merges one or more sorted parts into one sorted slice,
// adjacent pairs per round. The result is a new slice of exactly the rows'
// length, also from a lone part: parts are presized to an upper bound, and
// the dataset keeps the result.
func mergeExtractions(parts [][]Extraction) []Extraction {
	for len(parts) > 2 {
		next := parts[:0]
		for i := 0; i < len(parts); i += 2 {
			if i+1 == len(parts) {
				next = append(next, parts[i])
				break
			}
			next = append(next, mergeTwo(parts[i], parts[i+1]))
		}
		parts = next
	}
	var b []Extraction
	if len(parts) == 2 {
		b = parts[1]
	}
	return mergeTwo(parts[0], b)
}

// mergeTwo merges two sorted slices into a new one; on a tie a's row goes
// first.
func mergeTwo(a, b []Extraction) []Extraction {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make([]Extraction, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if extractionLess(&b[j], &a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
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
