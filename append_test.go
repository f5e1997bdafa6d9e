package kfusion

// Warm-start quality regression test: the streaming (online-EM) mode of the
// append pipeline — one warm-started round per appended batch instead of a
// cold R=5 recompile — must match the cold path's evaluation quality within
// documented bounds on the realistic bench dataset. Pointwise equality is
// the wrong contract here: the R-capped EM runs of the paper are forced
// truncations of a non-converging iteration (POPACCU's accuracies oscillate
// above the 1e-4 threshold indefinitely), so warm and cold outputs are two
// different cut points of the same trajectory; what production cares about
// is that freshness via Append + warm start costs no measurable calibration
// or ranking quality. The bounds below carry ~3-7x headroom over the drift
// measured across seeds (WDev within ~0.008, AUC-PR within ~0.025); the
// dataset is deterministic, so the test cannot flake.

import (
	"math"
	"testing"

	"kfusion/internal/eval"
	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

const (
	warmWDevTol  = 0.02
	warmAUCPRTol = 0.05
)

func TestWarmStartQualityOnBenchDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale dataset in -short mode")
	}
	ds := exper.SharedDataset(exper.ScaleBench, benchSeed)
	xs := ds.Extractions
	n := len(xs)
	cut := n - n/10

	// POPACCU over the claim graph.
	cfg := fusion.PopAccuConfig()
	cold := fusion.MustCompile(fusion.Claims(xs, cfg.Granularity)).MustFuse(cfg)
	base := fusion.CompileExtractions(xs[:cut], cfg.Granularity, 0)
	prev := base.MustFuse(cfg)
	next, err := base.AppendExtractions(xs[cut:], cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Rounds = 1
	warm := next.MustFuseWarm(warmCfg, prev)
	assertWarmQuality(t, "popaccu", ds, cold, warm)

	// The two-layer model over the extraction graph.
	tcfg := twolayer.DefaultConfig()
	tcfg.SiteLevel = true
	tcold, _, err := twolayer.FuseCompiledWarm(ds.ExtractionGraph(true), tcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbase := extract.Compile(xs[:cut], true)
	_, state, err := twolayer.FuseCompiledWarm(tbase, tcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	twarmCfg := tcfg
	twarmCfg.Rounds = 1
	twarm, _, err := twolayer.FuseCompiledWarm(tbase.Append(xs[cut:]), twarmCfg, state)
	if err != nil {
		t.Fatal(err)
	}
	assertWarmQuality(t, "twolayer", ds, tcold, twarm)
}

func assertWarmQuality(t *testing.T, name string, ds *exper.Dataset, cold, warm *fusion.Result) {
	t.Helper()
	rc := eval.Evaluate(name+"-cold", cold, ds.Gold)
	rw := eval.Evaluate(name+"-warm", warm, ds.Gold)
	if d := math.Abs(rw.WDev - rc.WDev); d > warmWDevTol {
		t.Errorf("%s: warm-start WDev %.4f vs cold %.4f (|Δ| %.4f > %.2f)", name, rw.WDev, rc.WDev, d, warmWDevTol)
	}
	if d := math.Abs(rw.AUCPR - rc.AUCPR); d > warmAUCPRTol {
		t.Errorf("%s: warm-start AUC-PR %.4f vs cold %.4f (|Δ| %.4f > %.2f)", name, rw.AUCPR, rc.AUCPR, d, warmAUCPRTol)
	}
	t.Logf("%s: cold WDev=%.4f AUCPR=%.4f | warm(1 round) WDev=%.4f AUCPR=%.4f", name, rc.WDev, rc.AUCPR, rw.WDev, rw.AUCPR)
}

// TestAppendBitIdenticalColdStartOnBenchDataset pins the other half of the
// acceptance contract at realistic scale: Append-then-cold-Fuse equals
// recompile-then-cold-Fuse bit-for-bit (the appended graph IS the recompiled
// graph), for both graph layers, at several worker counts.
func TestAppendBitIdenticalColdStartOnBenchDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale dataset in -short mode")
	}
	ds := exper.SharedDataset(exper.ScaleBench, benchSeed)
	xs := ds.Extractions
	n := len(xs)
	cut := n - n/10

	cfg := fusion.PopAccuConfig()
	full := fusion.MustCompile(fusion.Claims(xs, cfg.Granularity))
	next, err := fusion.CompileExtractions(xs[:cut], cfg.Granularity, 0).AppendExtractions(xs[cut:], cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		c := cfg
		c.Workers = workers
		got := next.MustFuse(c)
		want := full.MustFuse(c)
		if len(got.Triples) != len(want.Triples) || got.Rounds != want.Rounds {
			t.Fatalf("workers=%d: shape mismatch", workers)
		}
		for i := range got.Triples {
			if got.Triples[i] != want.Triples[i] {
				t.Fatalf("workers=%d: triple %d differs between append and recompile", workers, i)
			}
		}
	}

	tcfg := twolayer.DefaultConfig()
	tcfg.SiteLevel = true
	tbase := extract.Compile(xs[:cut], true)
	tnext := tbase.Append(xs[cut:])
	for _, workers := range []int{1, 4, 8} {
		c := tcfg
		c.Workers = workers
		got, err := twolayer.FuseCompiled(tnext, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twolayer.FuseCompiled(ds.ExtractionGraph(true), c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Triples) != len(want.Triples) || got.Rounds != want.Rounds {
			t.Fatalf("twolayer workers=%d: shape mismatch", workers)
		}
		for i := range got.Triples {
			if got.Triples[i] != want.Triples[i] {
				t.Fatalf("twolayer workers=%d: triple %d differs between append and recompile", workers, i)
			}
		}
	}
}
