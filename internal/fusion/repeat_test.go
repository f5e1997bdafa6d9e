package fusion_test

import (
	"fmt"
	"math"
	"testing"

	"kfusion/internal/exper"
	"kfusion/internal/fusion"
)

// TestRepeatedFuseBitwise holds the EM loops whose chunks go to whichever
// worker is free (stage I, ProvPartials and stage III, csr.ParallelChunks)
// to their one-worker bits when the split changes from run to run: the bench
// dataset's claim graphs are fused 20 times at Workers 4 under VOTE, ACCU,
// POPACCU and POPACCU+unsup, and every run must equal the Workers 1 run bit
// for bit. The worker-count tests fix one split per run; this one repeats a
// split that depends on timing. (An external test: internal/exper imports
// this package.)
func TestRepeatedFuseBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("fuses the bench dataset 84 times")
	}
	const repeats = 20
	ds := exper.SharedDataset(exper.ScaleBench, 42)
	for name, cfg := range map[string]fusion.Config{
		"VOTE": fusion.VoteConfig(), "ACCU": fusion.AccuConfig(), "POPACCU": fusion.PopAccuConfig(),
		"POPACCU+unsup": fusion.PopAccuPlusUnsupConfig(),
	} {
		g := ds.Compiled(cfg.Granularity)
		one := cfg
		one.Workers = 1
		want := g.MustFuse(one)
		four := cfg
		four.Workers = 4
		for r := 0; r < repeats; r++ {
			if diff := resultDiff(g.MustFuse(four), want); diff != "" {
				t.Fatalf("%s run %d at Workers 4: %s", name, r, diff)
			}
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
		return fmt.Sprintf("%d provenance accuracies, want %d", len(got.ProvAccuracy), len(want.ProvAccuracy))
	}
	for p, a := range got.ProvAccuracy {
		if w, ok := want.ProvAccuracy[p]; !ok || math.Float64bits(a) != math.Float64bits(w) {
			return fmt.Sprintf("accuracy of %q: %v, want %v", p, a, w)
		}
	}
	return ""
}
