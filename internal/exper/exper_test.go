package exper

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

func testDS(t testing.TB) *Dataset {
	t.Helper()
	return SharedDataset(ScaleSmall, 100)
}

func TestAllExperimentsRun(t *testing.T) {
	ds := testDS(t)
	for _, ex := range Registry {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			tb := ex.Run(ds)
			if tb == nil {
				t.Fatal("nil table")
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			out := tb.String()
			if !strings.Contains(out, tb.ID) {
				t.Error("render missing ID")
			}
			for _, n := range tb.Notes {
				if strings.HasPrefix(n, "VIOLATED") {
					t.Errorf("paper-shape check failed: %s", n)
				}
			}
			t.Logf("\n%s", out)
		})
	}
}

func TestByID(t *testing.T) {
	if ByID("fig9") == nil {
		t.Error("fig9 missing from registry")
	}
	if ByID("nope") != nil {
		t.Error("unknown ID resolved")
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(ScaleSmall, 7)
	b := NewDataset(ScaleSmall, 7)
	if len(a.Extractions) != len(b.Extractions) {
		t.Fatalf("extraction counts differ: %d vs %d", len(a.Extractions), len(b.Extractions))
	}
	for i := range a.Extractions {
		if a.Extractions[i] != b.Extractions[i] {
			t.Fatalf("extraction %d differs", i)
		}
	}
}

func TestSharedDatasetCached(t *testing.T) {
	a := SharedDataset(ScaleSmall, 100)
	b := SharedDataset(ScaleSmall, 100)
	if a != b {
		t.Error("SharedDataset did not cache")
	}
}

func TestFuseCache(t *testing.T) {
	ds := testDS(t)
	a := ds.Fuse("VOTE", fusion.VoteConfig())
	b := ds.Fuse("VOTE", fusion.VoteConfig())
	if a != b {
		t.Error("Fuse did not cache by key")
	}
}

// TestFuseConcurrentSingleflight pins the fix for the double-checked-lock
// race: concurrent callers of one cacheKey must share a single fusion run
// and a single result pointer, never overwrite each other.
func TestFuseConcurrentSingleflight(t *testing.T) {
	ds := NewDataset(ScaleSmall, 31)
	cfg := fusion.VoteConfig()
	const callers = 16
	var builds atomic.Int32
	built := make([]*fusion.Result, callers)
	results := make([]*fusion.Result, callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Each caller reaches the cell Fuse looks up through a counting
			// build before it calls Fuse, so whichever build runs is counted.
			built[k] = cellFor(&ds.mu, ds.fuseCache, "vote-concurrent").Get(func() *fusion.Result {
				builds.Add(1)
				return ds.Compiled(cfg.Granularity).MustFuse(cfg)
			})
			results[k] = ds.Fuse("vote-concurrent", cfg)
		}(k)
	}
	wg.Wait()
	for k := 0; k < callers; k++ {
		if built[k] != built[0] || results[k] != built[0] {
			t.Fatal("concurrent callers saw different result pointers")
		}
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("fusion ran %d times for one cacheKey, want 1", got)
	}
}

// TestFigure14RoundCaps pins the invariants of Figure 14's capped runs: the
// R=25 row runs the default row's first five rounds, and an R=5 row's fifth
// round is its final result.
func TestFigure14RoundCaps(t *testing.T) {
	rows := map[string][]string{}
	for _, row := range Figure14(testDS(t)).Rows {
		rows[row[0]] = row[1:]
	}
	def, longR := rows["DefaultAccu (L=1M,R=5)"], rows["DefaultAccu (L=1M,R=25)"]
	if def == nil || longR == nil {
		t.Fatalf("fig14 rows missing: %v", rows)
	}
	for r := 0; r < 5; r++ {
		if def[r] != longR[r] || def[r] == "-" {
			t.Errorf("R%d: R=25 row %q, default row %q", r+1, longR[r], def[r])
		}
	}
	for name, row := range rows {
		if strings.Contains(name, "R=5") && row[4] != row[5] {
			t.Errorf("%s: R5 = %s, final WDev = %s", name, row[4], row[5])
		}
	}
}

// TestFusePanicRepanics pins the panic path of the per-key once: a build
// that panics must re-panic for every caller of that key, never consume the
// once and hand out silent nils.
func TestFusePanicRepanics(t *testing.T) {
	ds := testDS(t)
	bad := fusion.AccuConfig()
	bad.AccuracyThreshold = 1.5 // Validate rejects it -> MustFuse panics
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("call %d: invalid config did not panic", i)
				}
			}()
			ds.Fuse("bad-config", bad)
		}()
	}
}

// TestSharedDatasetConcurrent pins the per-key once: simultaneous requests
// for one new (scale, seed) must share a single build.
func TestSharedDatasetConcurrent(t *testing.T) {
	const callers = 8
	results := make([]*Dataset, callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k] = SharedDataset(ScaleSmall, 987631)
		}(k)
	}
	wg.Wait()
	for k := 0; k < callers; k++ {
		if results[k] == nil || results[k] != results[0] {
			t.Fatal("concurrent SharedDataset callers saw different datasets")
		}
	}
}

// TestCompiledGraphReused pins the compiled-claim-graph cache: one graph per
// granularity, shared across presets, surviving ClearFusionCache, and
// producing results bit-identical to a fresh compile-and-fuse.
func TestCompiledGraphReused(t *testing.T) {
	ds := testDS(t)
	a := ds.Compiled(fusion.GranExtractorURL)
	if b := ds.Compiled(fusion.GranExtractorURL); b != a {
		t.Error("Compiled not cached per granularity")
	}
	if c := ds.Compiled(fusion.GranExtractorSite); c == a {
		t.Error("distinct granularities share a compiled graph")
	}

	res := ds.Fuse("popaccu-reuse-check", fusion.PopAccuConfig())
	fresh := fusion.MustFuse(fusion.Claims(ds.Extractions, fusion.GranExtractorURL), fusion.PopAccuConfig())
	if len(res.Triples) != len(fresh.Triples) {
		t.Fatalf("%d triples via compiled reuse, want %d", len(res.Triples), len(fresh.Triples))
	}
	for i := range res.Triples {
		if res.Triples[i] != fresh.Triples[i] {
			t.Fatalf("triple %d differs from fresh compile: %+v vs %+v",
				i, res.Triples[i], fresh.Triples[i])
		}
	}

	ds.ClearFusionCache()
	if ds.Compiled(fusion.GranExtractorURL) != a {
		t.Error("ClearFusionCache dropped the compiled graph")
	}
	if res2 := ds.Fuse("popaccu-reuse-check", fusion.PopAccuConfig()); res2 == res {
		t.Error("ClearFusionCache kept the result cache")
	}
}

// TestUniqueCounts cross-checks the exported UniqueTriple support counts
// against an independent recount of the raw extractions.
func TestUniqueCounts(t *testing.T) {
	ds := testDS(t)
	type support struct {
		exts, urls map[string]bool
		provs      int
	}
	want := map[kb.Triple]*support{}
	for _, x := range ds.Extractions {
		s := want[x.Triple]
		if s == nil {
			s = &support{exts: map[string]bool{}, urls: map[string]bool{}}
			want[x.Triple] = s
		}
		s.exts[x.Extractor] = true
		s.urls[x.URL] = true
		s.provs++
	}
	uniq := ds.Unique()
	if len(uniq) != len(want) {
		t.Fatalf("%d unique triples, want %d", len(uniq), len(want))
	}
	for _, u := range uniq {
		s := want[u.Triple]
		if s == nil {
			t.Fatalf("unexpected triple %v", u.Triple)
		}
		if u.Extractors != len(s.exts) || u.URLs != len(s.urls) || u.Provenances != s.provs {
			t.Fatalf("%v: counts (%d ext, %d urls, %d provs), want (%d, %d, %d)",
				u.Triple, u.Extractors, u.URLs, u.Provenances, len(s.exts), len(s.urls), s.provs)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"A", "B"}}
	tb.AddRow("hello", 42)
	tb.AddRow(3.14159, "y")
	tb.Notef("note %d", 1)
	out := tb.String()
	for _, want := range []string{"hello", "42", "3.142", "note 1", "== x: t =="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestLearnDegrees(t *testing.T) {
	fused := func(subj, pred, obj string, prob float64) fusion.FusedTriple {
		return fusion.FusedTriple{
			Triple:      kb.Triple{Subject: kb.EntityID(subj), Predicate: kb.PredicateID(pred), Object: kb.StringObject(obj)},
			Probability: prob,
			Predicted:   true,
		}
	}
	unpredicted := func(subj, pred, obj string) fusion.FusedTriple {
		f := fused(subj, pred, obj, -1)
		f.Predicted = false
		return f
	}
	// sum adds left to right in float64, as the learner does; a constant
	// expression would be folded exactly.
	sum := func(xs ...float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		triples []fusion.FusedTriple
		want    map[kb.PredicateID]float64
	}{
		{"functional clamps to 1", []fusion.FusedTriple{
			fused("a", "/p/func", "x", 0.9), fused("a", "/p/func", "y", 0.05),
			fused("b", "/p/func", "x", 0.85),
		}, map[kb.PredicateID]float64{"/p/func": 1}},
		{"multi-valued is the mean item sum", []fusion.FusedTriple{
			fused("a", "/p/multi", "x", 0.8), fused("a", "/p/multi", "y", 0.75),
			fused("b", "/p/multi", "x", 0.9), fused("b", "/p/multi", "y", 0.8), fused("b", "/p/multi", "z", 0.3),
		}, map[kb.PredicateID]float64{"/p/multi": sum(sum(0.8, 0.75), sum(0.9, 0.8, 0.3)) / 2}},
		{"clamps to the maximum", []fusion.FusedTriple{
			fused("a", "/p/huge", "v1", 0.99), fused("a", "/p/huge", "v2", 0.99), fused("a", "/p/huge", "v3", 0.99),
			fused("a", "/p/huge", "v4", 0.99), fused("a", "/p/huge", "v5", 0.99), fused("a", "/p/huge", "v6", 0.99),
			fused("a", "/p/huge", "v7", 0.99),
		}, map[kb.PredicateID]float64{"/p/huge": maxLearnedDegree}},
		{"skips unpredicted triples", []fusion.FusedTriple{
			fused("a", "/p/multi", "x", 0.9), unpredicted("a", "/p/multi", "y"), fused("a", "/p/multi", "z", 0.9),
			unpredicted("b", "/p/multi", "x"),
			unpredicted("a", "/p/none", "x"),
		}, map[kb.PredicateID]float64{"/p/multi": sum(0.9, 0.9)}},
		// Four items whose sums round differently under some orders: the
		// total must follow the order the items first appear in.
		{"sums items in first-seen order", []fusion.FusedTriple{
			fused("a", "/p/m", "x", 0.7), fused("b", "/p/m", "x", 0.9), fused("a", "/p/m", "y", 0.6),
			fused("c", "/p/m", "x", 0.8), fused("d", "/p/m", "x", 0.1), fused("b", "/p/m", "y", 0.2),
			fused("c", "/p/m", "y", 0.3), fused("c", "/p/m", "z", 0.4), fused("d", "/p/m", "y", 0.2),
			fused("d", "/p/m", "z", 0.3), fused("d", "/p/m", "w", 0.9),
		}, map[kb.PredicateID]float64{
			"/p/m": sum(sum(0.7, 0.6), sum(0.9, 0.2), sum(0.8, 0.3, 0.4), sum(0.1, 0.2, 0.3, 0.9)) / 4,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := &fusion.Result{Triples: tc.triples}
			for run := 0; run < 20; run++ {
				got := learnDegrees(res)
				if len(got) != len(tc.want) {
					t.Fatalf("run %d: degrees %v, want %v", run, got, tc.want)
				}
				for p, d := range tc.want {
					if got[p] != d {
						t.Fatalf("run %d: degree of %s = %v, want %v", run, p, got[p], d)
					}
				}
			}
		})
	}
}

// TestScaleConfigsValidate: every scale's world and corpus configs pass the
// generators' range checks.
func TestScaleConfigsValidate(t *testing.T) {
	for _, scale := range []Scale{ScaleSmall, ScaleBench, ScaleLarge} {
		wcfg, ccfg := scaleConfigs(scale, 42)
		if err := wcfg.Validate(); err != nil {
			t.Errorf("scale %d: world config: %v", scale, err)
		}
		if err := ccfg.Validate(); err != nil {
			t.Errorf("scale %d: corpus config: %v", scale, err)
		}
	}
}
