package extract

import (
	"math"
	"sort"
	"testing"

	"kfusion/internal/kb"
	"kfusion/internal/randx"
	"kfusion/internal/web"
	"kfusion/internal/world"
)

func testSetup(t testing.TB, seed int64) (*world.World, *web.Corpus, *Suite, []Extraction) {
	t.Helper()
	w := world.MustGenerate(world.DefaultConfig(seed))
	corpus := web.MustGenerate(w, web.DefaultConfig(seed+1))
	suite := NewSuite(w, seed+2)
	return w, corpus, suite, suite.Run(w, corpus)
}

func TestRunDeterministic(t *testing.T) {
	_, _, _, a := testSetup(t, 21)
	_, _, _, b := testSetup(t, 21)
	if len(a) != len(b) {
		t.Fatalf("extraction counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("extraction %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestAllExtractorsFire(t *testing.T) {
	_, _, suite, xs := testSetup(t, 22)
	counts := map[string]int{}
	for _, x := range xs {
		counts[x.Extractor]++
	}
	for _, name := range suite.Names() {
		if counts[name] == 0 {
			t.Errorf("extractor %s produced no extractions", name)
		}
	}
	if len(xs) < 5000 {
		t.Errorf("too few extractions overall: %d", len(xs))
	}
}

func extractorAccuracy(w *world.World, xs []Extraction) map[string][2]int {
	acc := map[string][2]int{}
	for _, x := range xs {
		c := acc[x.Extractor]
		c[1]++
		if w.IsTrue(x.Triple) {
			c[0]++
		}
		acc[x.Extractor] = c
	}
	return acc
}

func TestExtractorAccuracySpread(t *testing.T) {
	w, _, suite, xs := testSetup(t, 23)
	acc := extractorAccuracy(w, xs)
	rates := map[string]float64{}
	for _, name := range suite.Names() {
		c := acc[name]
		if c[1] == 0 {
			t.Fatalf("no extractions for %s", name)
		}
		rates[name] = float64(c[0]) / float64(c[1])
		t.Logf("%-5s accuracy %.3f  (%d triples)", name, rates[name], c[1])
	}
	// Table 2's ordering at the extremes: TXT4 is the most accurate
	// extractor, DOM2 the least; the spread is wide.
	for name, r := range rates {
		if name != "TXT4" && r > rates["TXT4"] {
			t.Errorf("%s accuracy %.2f exceeds TXT4's %.2f", name, r, rates["TXT4"])
		}
		if name != "DOM2" && r < rates["DOM2"] {
			t.Errorf("%s accuracy %.2f below DOM2's %.2f", name, r, rates["DOM2"])
		}
	}
	if rates["TXT4"] < 0.6 {
		t.Errorf("TXT4 accuracy %.2f too low (Table 2: 0.78)", rates["TXT4"])
	}
	if rates["DOM2"] > 0.25 {
		t.Errorf("DOM2 accuracy %.2f too high (Table 2: 0.09)", rates["DOM2"])
	}
	if rates["TXT4"]-rates["DOM2"] < 0.4 {
		t.Errorf("accuracy spread too narrow: %.2f..%.2f", rates["DOM2"], rates["TXT4"])
	}
}

func TestOverallAccuracyNearPaper(t *testing.T) {
	w, _, _, xs := testSetup(t, 24)
	// The paper estimates ~30% of extracted triples are correct. Unique
	// triples, not extraction instances.
	uniq := map[kb.Triple]bool{}
	trueN := 0
	for _, x := range xs {
		if !uniq[x.Triple] {
			uniq[x.Triple] = true
			if w.IsTrue(x.Triple) {
				trueN++
			}
		}
	}
	rate := float64(trueN) / float64(len(uniq))
	t.Logf("unique triples %d, overall accuracy %.3f", len(uniq), rate)
	if rate < 0.15 || rate > 0.5 {
		t.Errorf("overall unique-triple accuracy %.2f outside [0.15,0.50] (paper: ~0.30)", rate)
	}
}

func TestErrorKindConsistency(t *testing.T) {
	w, _, _, xs := testSetup(t, 25)
	for _, x := range xs {
		switch x.Error {
		case ErrNone:
			if !w.IsTrue(x.Triple) {
				t.Fatalf("ErrNone extraction is false: %+v", x)
			}
		case ErrSource:
			if w.IsTrue(x.Triple) {
				t.Fatalf("ErrSource extraction is true: %+v", x)
			}
		}
	}
}

func TestErrorMixMatchesPaper(t *testing.T) {
	w, _, _, xs := testSetup(t, 26)
	// Among FALSE extractions: extraction errors dominate, source errors
	// are a small minority (§3.2.1: 44/44/20/4).
	counts := map[ErrorKind]int{}
	falseN := 0
	for _, x := range xs {
		if w.IsTrue(x.Triple) {
			continue
		}
		falseN++
		counts[x.Error]++
	}
	if falseN == 0 {
		t.Fatal("no false extractions")
	}
	srcShare := float64(counts[ErrSource]) / float64(falseN)
	if srcShare > 0.15 {
		t.Errorf("source errors are %.1f%% of false extractions; should be a small minority", 100*srcShare)
	}
	for _, k := range []ErrorKind{ErrTripleID, ErrEntityLink, ErrPredicateLink} {
		if counts[k] == 0 {
			t.Errorf("no false extraction attributed to %v", k)
		}
	}
	if counts[ErrTripleID] < counts[ErrPredicateLink] {
		t.Errorf("triple-identification errors (%d) should outnumber predicate-linkage errors (%d)",
			counts[ErrTripleID], counts[ErrPredicateLink])
	}
}

func TestConfidenceRanges(t *testing.T) {
	_, _, _, xs := testSetup(t, 27)
	noConf := map[string]bool{"DOM5": true, "TBL2": true}
	for _, x := range xs {
		if noConf[x.Extractor] {
			if x.HasConfidence() {
				t.Fatalf("%s should not report confidence: %+v", x.Extractor, x)
			}
			continue
		}
		if !x.HasConfidence() || x.Confidence > 1 {
			t.Fatalf("bad confidence %v for %s", x.Confidence, x.Extractor)
		}
	}
}

func TestConfidenceInformativeness(t *testing.T) {
	w, _, _, xs := testSetup(t, 28)
	// TXT1's confidences should be informative: accuracy above threshold
	// 0.7 clearly better than below (Table 2: 0.36 → 0.52).
	hiT, hiC, loT, loC := 0, 0, 0, 0
	for _, x := range xs {
		if x.Extractor != "TXT1" {
			continue
		}
		if x.Confidence >= 0.7 {
			hiT++
			if w.IsTrue(x.Triple) {
				hiC++
			}
		} else {
			loT++
			if w.IsTrue(x.Triple) {
				loC++
			}
		}
	}
	if hiT < 50 || loT < 50 {
		t.Skip("not enough TXT1 volume")
	}
	hi, lo := float64(hiC)/float64(hiT), float64(loC)/float64(loT)
	if hi <= lo {
		t.Errorf("TXT1 high-confidence accuracy %.2f not above low-confidence %.2f", hi, lo)
	}
}

func TestSiteRestrictedExtractors(t *testing.T) {
	_, _, _, xs := testSetup(t, 29)
	for _, x := range xs {
		cls := siteClass(x.Site)
		switch x.Extractor {
		case "TXT3":
			if cls != "news" {
				t.Fatalf("TXT3 extracted from %s", x.Site)
			}
		case "TXT4", "DOM5":
			if cls != "wiki" {
				t.Fatalf("%s extracted from %s", x.Extractor, x.Site)
			}
		case "TXT2":
			if cls == "wiki" || cls == "news" {
				t.Fatalf("TXT2 extracted from %s", x.Site)
			}
		}
	}
}

func TestPatternsOnlyForPatternExtractors(t *testing.T) {
	_, _, suite, xs := testSetup(t, 30)
	for _, x := range xs {
		e := suite.ByName(x.Extractor)
		if e.Patterns == PatNone && x.Pattern != "" {
			t.Fatalf("%s reported pattern %q", x.Extractor, x.Pattern)
		}
		if e.Patterns != PatNone && x.Pattern == "" {
			t.Fatalf("%s missing pattern", x.Extractor)
		}
	}
}

func TestSharedLinkerCausesCorrelatedErrors(t *testing.T) {
	w, _, _, xs := testSetup(t, 31)
	// Some false triple must be extracted by >= 4 extractors (shared
	// linkage/toxic mistakes) — the phenomenon behind Figure 6's drop.
	extractorsPerTriple := map[kb.Triple]map[string]bool{}
	for _, x := range xs {
		if extractorsPerTriple[x.Triple] == nil {
			extractorsPerTriple[x.Triple] = map[string]bool{}
		}
		extractorsPerTriple[x.Triple][x.Extractor] = true
	}
	maxFalse := 0
	for tr, exts := range extractorsPerTriple {
		if !w.IsTrue(tr) && len(exts) > maxFalse {
			maxFalse = len(exts)
		}
	}
	if maxFalse < 4 {
		t.Errorf("max extractors agreeing on a false triple = %d; want >= 4 (correlated errors)", maxFalse)
	}
}

func TestLinkerDeterministicPerName(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(40))
	l := NewLinker("test-linker", 0.3, w)
	scratch := randx.New(0)
	for _, eid := range w.Ont.Entities()[:200] {
		name := w.Ont.Entity(eid).Name
		a, errA := l.Resolve(name, eid, scratch)
		scratch.Int63() // what the caller's stream held before does not matter
		b, errB := l.Resolve(name, eid, scratch)
		if a != b || errA != errB {
			t.Fatalf("linker not deterministic for %q: %v/%v vs %v/%v", name, a, errA, b, errB)
		}
	}
}

func TestLinkerErrorRateScales(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(41))
	strict := NewLinker("strict", 0.0, w)
	sloppy := NewLinker("sloppy", 0.5, w)
	scratch := randx.New(0)
	strictErrs, sloppyErrs := 0, 0
	for _, eid := range w.Ont.Entities() {
		name := w.Ont.Entity(eid).Name
		if _, bad := strict.Resolve(name, eid, scratch); bad {
			strictErrs++
		}
		if _, bad := sloppy.Resolve(name, eid, scratch); bad {
			sloppyErrs++
		}
	}
	if sloppyErrs <= strictErrs {
		t.Errorf("sloppy linker errors (%d) not above strict linker errors (%d)", sloppyErrs, strictErrs)
	}
}

func TestSchemaMapperDeterministicAndScaled(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(42))
	m := NewSchemaMapper("m1", 0.5, w)
	clean := NewSchemaMapper("m2", 0.0, w)
	scratch := randx.New(0)
	errs := 0
	for _, pid := range w.Ont.Predicates() {
		a, badA := m.Map(pid, scratch)
		scratch.Int63() // what the caller's stream held before does not matter
		b, badB := m.Map(pid, scratch)
		if a != b || badA != badB {
			t.Fatalf("mapper not deterministic for %s", pid)
		}
		if badA {
			errs++
			p, q := w.Ont.Predicate(pid), w.Ont.Predicate(a)
			if p.SubjectType != q.SubjectType || p.Domain != q.Domain {
				t.Fatalf("mapper produced non-sibling: %s -> %s", pid, a)
			}
		}
		if got, bad := clean.Map(pid, scratch); bad || got != pid {
			t.Fatalf("zero-rate mapper erred on %s", pid)
		}
	}
	if errs == 0 {
		t.Error("0.5-rate mapper never erred")
	}
}

func TestExtractorPageLevelDeterminism(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(44))
	corpus := web.MustGenerate(w, web.DefaultConfig(45))
	suite := NewSuite(w, 46)
	page := corpus.Pages[0]
	e := suite.Extractors[0]
	a := e.Extract(w, page, randx.New(7))
	b := e.Extract(w, page, randx.New(7))
	if len(a) != len(b) {
		t.Fatalf("page extraction not deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("extraction %d differs", i)
		}
	}
}

// TestRunIsPerPageExtract: the suite's shared page view changes nothing — a
// run is every extractor's Extract over every page, on the stream Run
// derives for the pair, sorted.
func TestRunIsPerPageExtract(t *testing.T) {
	w, corpus, suite, got := testSetup(t, 31)
	root := randx.New(suite.Seed)
	var want []Extraction
	for pi, page := range corpus.Pages {
		for _, e := range suite.Extractors {
			want = append(want, e.Extract(w, page, root.SplitN(e.Name+"|"+page.URL, int64(pi)))...)
		}
	}
	sort.Slice(want, func(i, j int) bool { return extractionLess(&want[i], &want[j]) })
	if len(got) != len(want) {
		t.Fatalf("Run yields %d extractions, per-page Extract %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("extraction %d differs:\n%+v\n%+v", i, got[i], want[i])
		}
	}
	for _, page := range corpus.Pages {
		v, all := readPage(page), page.Mentions()
		if len(v.mentions) != len(all) {
			t.Fatalf("%s: view holds %d mentions, page %d", page.URL, len(v.mentions), len(all))
		}
		for i := range all {
			if v.mentions[i] != all[i] {
				t.Fatalf("%s mention %d differs", page.URL, i)
			}
		}
	}
}

// TestObjectStringLess: the sort key compares as the tagged strings do,
// numbers by their digits ("n:10" < "n:9").
func TestObjectStringLess(t *testing.T) {
	objs := []kb.Object{
		{}, kb.EntityObject(""), kb.EntityObject("/m/1"), kb.EntityObject("/m/10"), kb.EntityObject("s:x"),
		kb.StringObject(""), kb.StringObject("/m/1"), kb.StringObject("Syracuse NY"), kb.StringObject("e:"), kb.StringObject("é"),
		kb.NumberObject(0), kb.NumberObject(math.Copysign(0, -1)), kb.NumberObject(9), kb.NumberObject(10), kb.NumberObject(-10),
		kb.NumberObject(1986), kb.NumberObject(1e21), kb.NumberObject(1e-7), kb.NumberObject(5e-324), kb.NumberObject(-math.MaxFloat64),
		kb.NumberObject(math.Inf(1)), kb.NumberObject(math.NaN()), kb.NumberObject(0.1 + 0.2),
		{Kind: 7, Str: "other kinds print as strings"}, {Kind: kb.KindNumber, Str: "ignored", Num: 3},
	}
	for _, a := range objs {
		for _, b := range objs {
			if got, want := objectStringLess(a, b), a.String() < b.String(); got != want {
				t.Errorf("objectStringLess(%q, %q) = %v, want %v", a.String(), b.String(), got, want)
			}
		}
	}
	a, b := kb.NumberObject(1234.5), kb.NumberObject(1234.25)
	if n := testing.AllocsPerRun(100, func() { objectStringLess(a, b) }); n != 0 {
		t.Errorf("comparing two numbers allocates %.0f times", n)
	}
}
