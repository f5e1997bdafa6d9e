package twolayer

import (
	"fmt"
	"math"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

func ex(subj, obj, extractor, url string) extract.Extraction {
	return extract.Extraction{
		Triple:    kb.Triple{Subject: kb.EntityID(subj), Predicate: "/x/p", Object: kb.StringObject(obj)},
		Extractor: extractor,
		URL:       url,
		Site:      url,
	}
}

func probOf(t *testing.T, res *fusion.Result, subj, obj string) float64 {
	t.Helper()
	for _, f := range res.Triples {
		if f.Triple.Subject == kb.EntityID(subj) && f.Triple.Object.Str == obj {
			return f.Probability
		}
	}
	t.Fatalf("triple (%s,%s) missing", subj, obj)
	return 0
}

func TestValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Rounds = 0
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted Rounds=0")
	}
	bad = DefaultConfig()
	bad.InitRecall = 1
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted InitRecall=1")
	}
	bad = DefaultConfig()
	bad.NFalse = 0
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted NFalse=0")
	}
	// NaN fails every comparison, so each range check must be written to
	// reject it.
	nan := math.NaN()
	for _, f := range []struct {
		name string
		set  func(*Config)
	}{
		{"InitSourceAccuracy", func(c *Config) { c.InitSourceAccuracy = nan }},
		{"InitRecall", func(c *Config) { c.InitRecall = nan }},
		{"InitFalsePos", func(c *Config) { c.InitFalsePos = nan }},
		{"PriorStated", func(c *Config) { c.PriorStated = nan }},
	} {
		bad = DefaultConfig()
		f.set(&bad)
		if _, err := Fuse(nil, bad); err == nil {
			t.Errorf("accepted %s=NaN", f.name)
		}
	}
}

// TestManyExtractorsBeatManyPages reproduces the Figure 18 signal: a triple
// extracted by many extractors from few pages should outrank a triple
// extracted by ONE extractor from many pages, even when the flat provenance
// count favors the latter.
func TestManyExtractorsBeatManyPages(t *testing.T) {
	var xs []extract.Extraction

	// "deep": 6 extractors agree on one page (plus a second page with 2).
	for _, e := range []string{"E1", "E2", "E3", "E4", "E5", "E6"} {
		xs = append(xs, ex("deep", "v", e, "http://p1"))
	}
	xs = append(xs, ex("deep", "v", "E1", "http://p2"), ex("deep", "v", "E2", "http://p2"))

	// "wide": one extractor repeats one value across 8 pages where other
	// extractors also ran but never corroborate it.
	for i := 0; i < 8; i++ {
		url := fmt.Sprintf("http://w%d", i)
		xs = append(xs, ex("wide", "v", "E7", url))
		// E1 and E2 processed the same pages and extracted something else
		// from them, so their silence on (wide, v) is informative.
		xs = append(xs, ex("other", "x", "E1", url), ex("other2", "y", "E2", url))
	}
	// Competing value for "wide" corroborated by two extractors on one page.
	xs = append(xs, ex("wide", "u", "E1", "http://wz"), ex("wide", "u", "E2", "http://wz"))

	res := MustFuse(xs, DefaultConfig())
	deep := probOf(t, res, "deep", "v")
	wideV := probOf(t, res, "wide", "v")
	wideU := probOf(t, res, "wide", "u")
	if deep <= wideV {
		t.Errorf("multi-extractor agreement (%.3f) should beat single-extractor repetition (%.3f)", deep, wideV)
	}
	if wideU <= wideV {
		t.Errorf("corroborated value (%.3f) should beat uncorroborated repetition (%.3f)", wideU, wideV)
	}

	// The flat single-layer baseline prefers the repeated value on the
	// contested item — the failure mode §5.1 describes.
	claims := fusion.Claims(xs, fusion.GranExtractorURL)
	flat := fusion.MustFuse(claims, fusion.PopAccuConfig())
	flatWideV := probOf(t, flat, "wide", "v")
	flatWideU := probOf(t, flat, "wide", "u")
	if flatWideV <= flatWideU {
		t.Logf("note: flat baseline also preferred the corroborated value here (%.3f vs %.3f)", flatWideU, flatWideV)
	}
}

func TestProbabilitiesInRangeAndDeterministic(t *testing.T) {
	var xs []extract.Extraction
	for i := 0; i < 20; i++ {
		xs = append(xs,
			ex(fmt.Sprintf("s%d", i%5), fmt.Sprintf("v%d", i%3), fmt.Sprintf("E%d", i%4), fmt.Sprintf("http://u%d", i%7)),
		)
	}
	a := MustFuse(xs, DefaultConfig())
	b := MustFuse(xs, DefaultConfig())
	if len(a.Triples) != len(b.Triples) {
		t.Fatal("nondeterministic sizes")
	}
	am, bm := a.ByTriple(), b.ByTriple()
	for tr, fa := range am {
		if fa != bm[tr] {
			t.Fatalf("nondeterministic result for %v", tr)
		}
		if fa.Probability < 0 || fa.Probability > 1 {
			t.Fatalf("probability out of range: %+v", fa)
		}
	}
}

func TestSiteLevelGrouping(t *testing.T) {
	var xs []extract.Extraction
	a := ex("s", "v", "E1", "http://x/1")
	a.Site = "x"
	b := ex("s", "v", "E1", "http://x/2")
	b.Site = "x"
	xs = append(xs, a, b)

	cfg := DefaultConfig()
	cfg.SiteLevel = true
	res := MustFuse(xs, cfg)
	// At site level both extractions collapse into one (source, triple)
	// statement.
	for _, f := range res.Triples {
		if f.Provenances != 1 {
			t.Errorf("site-level statements = %d, want 1", f.Provenances)
		}
	}
	if _, ok := res.ProvAccuracy["x"]; !ok {
		t.Error("site-level source accuracy missing")
	}
}

func TestEmptyInput(t *testing.T) {
	res := MustFuse(nil, DefaultConfig())
	if len(res.Triples) != 0 {
		t.Errorf("empty input produced %d triples", len(res.Triples))
	}
}
