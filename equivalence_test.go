package kfusion

// Engine-equivalence regression test: the compiled claim-graph engine must
// reproduce the seed shuffle-per-round engine on the shared bench dataset,
// for every method and worker count. This pins both determinism across
// Workers and old-vs-new engine parity at realistic scale.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"kfusion/internal/exper"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

const engineEquivTol = 1e-12

// The compiled engines must also keep their edge over the oracles they are
// compared with: each bench-dataset test times the reference's one run and
// the compiled runs it makes anyway and requires reference ÷ fastest compiled
// run to clear a constant floor. Both sides run on the same box within the
// same second, so the ratio cancels machine speed; what it catches is a
// compiled path regressing toward its reference, which no end-to-end workload
// sees (none has a reference engine on its path). The floors are at most half
// the smallest ratio seen on a 2-vCPU sandbox over 20 plain runs and under
// -race, which CI runs on every push and which is the binding case: the
// detector instruments the compiled engines' array loops but not the runtime
// maps the references live in.
const (
	// fusion.Fuse (compile + EM) vs fusion.FuseReference, POPACCU: 10.2-18.0x
	// plain, 7.2-8.2x under -race (docs/perf-history.json, PR 10, one core:
	// 16.0x).
	minPopAccuSpeedup = 3.5
	// twolayer.FuseCompiled (EM over the prebuilt graph) vs
	// twolayer.FuseReference, either source level: 18.1-35.9x plain, 6.2-8.2x
	// under -race (PR 10's TwoLayerFuseReuse ÷ ReferenceTwoLayerFuse: 28.3x;
	// with the graph compile on the clock, 5.8x here and 6.3x there).
	minTwoLayerSpeedup = 3.0
)

// fasterOf returns the shorter of two run times; a zero best is "no run yet".
func fasterOf(best, d time.Duration) time.Duration {
	if best == 0 || d < best {
		return d
	}
	return best
}

// requireSpeedup holds reference ÷ compiled to floor and logs the ratio.
func requireSpeedup(t *testing.T, name string, reference, compiled time.Duration, floor float64) {
	t.Helper()
	ratio := float64(reference) / float64(compiled)
	t.Logf("%s: compiled %v, reference %v: %.1fx (floor %.1fx)", name, compiled, reference, ratio, floor)
	if ratio < floor {
		t.Errorf("%s: compiled engine only %.1fx its reference, floor %.1fx", name, ratio, floor)
	}
}

// TestTwoLayerEquivalenceOnBenchDataset pins the compiled two-layer engine
// against the map-keyed reference engine over the bench extraction set, for
// both source levels and several worker counts: triple order, support counts
// and rounds exactly, probabilities and accuracies within the documented
// twolayer.RefTol (the compiled M-step reduces the per-extractor sums with a
// fixed-block pairwise tree instead of the reference's global left-to-right
// walk, which perturbs low-order bits — see internal/twolayer's package
// comment). Bitwise equality across worker counts is pinned separately by
// the forced-worker property tests in internal/twolayer.
func TestTwoLayerEquivalenceOnBenchDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale dataset in -short mode")
	}
	ds := exper.SharedDataset(exper.ScaleBench, benchSeed)
	for _, siteLevel := range []bool{false, true} {
		cfg := twolayer.DefaultConfig()
		cfg.SiteLevel = siteLevel
		start := time.Now()
		want, err := twolayer.FuseReference(ds.Extractions, cfg)
		refTime := time.Since(start)
		if err != nil {
			t.Fatalf("siteLevel=%v: reference: %v", siteLevel, err)
		}
		g := ds.ExtractionGraph(siteLevel)
		var fastest time.Duration
		for _, workers := range []int{1, 4, 8} {
			c := cfg
			c.Workers = workers
			start := time.Now()
			got, err := twolayer.FuseCompiled(g, c)
			fastest = fasterOf(fastest, time.Since(start))
			if err != nil {
				t.Fatalf("siteLevel=%v workers=%d: %v", siteLevel, workers, err)
			}
			if got.Rounds != want.Rounds {
				t.Errorf("siteLevel=%v workers=%d: Rounds = %d, want %d", siteLevel, workers, got.Rounds, want.Rounds)
			}
			if len(got.Triples) != len(want.Triples) {
				t.Fatalf("siteLevel=%v workers=%d: %d triples, want %d",
					siteLevel, workers, len(got.Triples), len(want.Triples))
			}
			mismatches := 0
			for i := range got.Triples {
				g, w := got.Triples[i], want.Triples[i]
				if g.Triple != w.Triple || g.Predicted != w.Predicted ||
					g.Provenances != w.Provenances || g.ItemProvenances != w.ItemProvenances ||
					g.Extractors != w.Extractors || !twolayer.CloseToReference(g.Probability, w.Probability) {
					if mismatches < 5 {
						t.Errorf("siteLevel=%v workers=%d: triple %d: %+v vs %+v",
							siteLevel, workers, i, g, w)
					}
					mismatches++
				}
			}
			if mismatches > 0 {
				t.Errorf("siteLevel=%v workers=%d: %d mismatching triples", siteLevel, workers, mismatches)
			}
			if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
				t.Fatalf("siteLevel=%v workers=%d: %d sources, want %d",
					siteLevel, workers, len(got.ProvAccuracy), len(want.ProvAccuracy))
			}
			for src, a := range got.ProvAccuracy {
				if wa := want.ProvAccuracy[src]; !twolayer.CloseToReference(a, wa) {
					t.Errorf("siteLevel=%v workers=%d: ProvAccuracy[%q] = %v, want %v",
						siteLevel, workers, src, a, wa)
					break
				}
			}
		}
		requireSpeedup(t, fmt.Sprintf("two-layer siteLevel=%v", siteLevel), refTime, fastest, minTwoLayerSpeedup)
	}
}

func TestEngineEquivalenceOnBenchDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale dataset in -short mode")
	}
	ds := exper.SharedDataset(exper.ScaleBench, benchSeed)
	configs := map[string]fusion.Config{
		"VOTE":     fusion.VoteConfig(),
		"ACCU":     fusion.AccuConfig(),
		"POPACCU":  fusion.PopAccuConfig(),
		"POPACCU+": fusion.PopAccuPlusConfig(ds.Gold.Labeler()),
	}
	for name, cfg := range configs {
		claims := fusion.Claims(ds.Extractions, cfg.Granularity)
		start := time.Now()
		want, err := fusion.FuseReference(claims, cfg)
		refTime := time.Since(start)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		wantBy := want.ByTriple()
		var fastest time.Duration
		for _, workers := range []int{1, 4, 8} {
			c := cfg
			c.Workers = workers
			start := time.Now()
			got, err := fusion.Fuse(claims, c)
			fastest = fasterOf(fastest, time.Since(start))
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			if got.Rounds != want.Rounds {
				t.Errorf("%s/workers=%d: Rounds = %d, want %d", name, workers, got.Rounds, want.Rounds)
			}
			if got.Unpredicted != want.Unpredicted {
				t.Errorf("%s/workers=%d: Unpredicted = %d, want %d", name, workers, got.Unpredicted, want.Unpredicted)
			}
			if len(got.Triples) != len(want.Triples) {
				t.Fatalf("%s/workers=%d: %d triples, want %d", name, workers, len(got.Triples), len(want.Triples))
			}
			mismatches := 0
			for _, f := range got.Triples {
				w, ok := wantBy[f.Triple]
				if !ok {
					t.Fatalf("%s/workers=%d: unexpected triple %v", name, workers, f.Triple)
				}
				if f.Predicted != w.Predicted || f.Provenances != w.Provenances ||
					f.ItemProvenances != w.ItemProvenances || f.Extractors != w.Extractors ||
					(f.Predicted && math.Abs(f.Probability-w.Probability) > engineEquivTol) {
					if mismatches < 5 {
						t.Errorf("%s/workers=%d: %v: %+v vs %+v", name, workers, f.Triple, f, w)
					}
					mismatches++
				}
			}
			if mismatches > 0 {
				t.Errorf("%s/workers=%d: %d mismatching triples", name, workers, mismatches)
			}
			if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
				t.Fatalf("%s/workers=%d: %d provenances, want %d", name, workers,
					len(got.ProvAccuracy), len(want.ProvAccuracy))
			}
			for p, a := range got.ProvAccuracy {
				if wa := want.ProvAccuracy[p]; math.Abs(a-wa) > engineEquivTol {
					t.Errorf("%s/workers=%d: ProvAccuracy[%q] = %v, want %v", name, workers, p, a, wa)
					break
				}
			}
		}
		if name == "POPACCU" {
			requireSpeedup(t, name, refTime, fastest, minPopAccuSpeedup)
		}
	}
}
