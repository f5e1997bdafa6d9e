package twolayer_test

import (
	"fmt"
	"math"
	"testing"

	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

// TestRepeatedFuseBitwise holds inferTruth, whose item chunks go to
// whichever worker is free (csr.ParallelChunks), to its one-worker bits when
// the split changes from run to run. The bench dataset's extraction graph is
// fused 20 times at Workers 4, cold, and as a warm one-round chain step: a
// 400-record Append onto the rest of the feed, fused from a State whose
// engines last ran on the head, so the first E-step takes the dirty scope
// and every full E-step the per-worker layer-1 memo. Every run must equal the Workers 1 run bit
// for bit. (An external test: internal/exper imports this package.)
func TestRepeatedFuseBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("fuses the bench dataset's extraction graphs 63 times")
	}
	const repeats, batch = 20, 400
	ds := exper.SharedDataset(exper.ScaleBench, 42)
	cfg := twolayer.DefaultConfig()
	xs := ds.Extractions
	g := ds.ExtractionGraph(cfg.SiteLevel)
	head := extract.Compile(xs[:len(xs)-batch], cfg.SiteLevel)
	next := head.Append(xs[len(xs)-batch:])
	_, cold, err := twolayer.FuseCompiledWarm(head, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// runs fuses g cold and steps head → next at the given worker count.
	runs := func(workers int) (coldRes, stepRes *fusion.Result) {
		c := cfg
		c.Workers = workers
		coldRes = twolayer.MustFuseCompiled(g, c)
		c.Rounds = 1
		_, carried, err := twolayer.FuseCompiledWarm(head, c, cold)
		if err != nil {
			t.Fatal(err)
		}
		stepRes, st, err := twolayer.FuseCompiledWarm(next, c, carried)
		if err != nil {
			t.Fatal(err)
		}
		if scored, total, ok := twolayer.FirstPass(st); !ok || scored*2 >= total {
			t.Fatalf("Workers %d: the step's first E-step scored %d of %d statements: the dirty scope is not being taken", workers, scored, total)
		}
		return coldRes, stepRes
	}
	wantCold, wantStep := runs(1)
	for r := 0; r < repeats; r++ {
		gotCold, gotStep := runs(4)
		if diff := resultDiff(gotCold, wantCold); diff != "" {
			t.Fatalf("cold run %d at Workers 4: %s", r, diff)
		}
		if diff := resultDiff(gotStep, wantStep); diff != "" {
			t.Fatalf("warm step %d at Workers 4: %s", r, diff)
		}
	}
}

// resultDiff names the first difference between two results, bit for bit on
// every float, or returns "".
func resultDiff(got, want *fusion.Result) string {
	if got.Rounds != want.Rounds || got.Unpredicted != want.Unpredicted || len(got.Triples) != len(want.Triples) {
		return fmt.Sprintf("rounds/unpredicted/triples %d/%d/%d, want %d/%d/%d",
			got.Rounds, got.Unpredicted, len(got.Triples), want.Rounds, want.Unpredicted, len(want.Triples))
	}
	for i, f := range got.Triples {
		w := want.Triples[i]
		pf, pw := f.Probability, w.Probability
		f.Probability, w.Probability = 0, 0
		if f != w || math.Float64bits(pf) != math.Float64bits(pw) {
			return fmt.Sprintf("triple %d: %+v (p %v), want %+v (p %v)", i, f, pf, w, pw)
		}
	}
	if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
		return fmt.Sprintf("%d source accuracies, want %d", len(got.ProvAccuracy), len(want.ProvAccuracy))
	}
	for p, a := range got.ProvAccuracy {
		if w, ok := want.ProvAccuracy[p]; !ok || math.Float64bits(a) != math.Float64bits(w) {
			return fmt.Sprintf("accuracy of %q: %v, want %v", p, a, w)
		}
	}
	return ""
}
