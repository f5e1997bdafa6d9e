package twolayer

import (
	"fmt"
	"math"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// warmStream synthesizes a deterministic extraction stream with a handful of
// mostly-consistent extractors over a growing source pool — data on which
// the two-layer EM converges (threshold-stopped), the regime warmTol covers.
func warmStream(n int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	for i := range xs {
		val := "true"
		if (int64(i)*2654435761)%100 < 12 { // deterministic ~12% noise
			val = fmt.Sprintf("f%d", i%2)
		}
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", i%(n/10+1))),
				Predicate: "p",
				Object:    kb.StringObject(val),
			},
			Extractor:  fmt.Sprintf("X%d", i%5),
			URL:        fmt.Sprintf("http://site%d.example/page%d", i%13, i%37),
			Site:       fmt.Sprintf("site%d.example", i%13),
			Confidence: -1,
		}
	}
	return xs
}

// TestFuseCompiledWarmWithinToleranceOfCold pins the warm-start contract in
// its converged regime: seeding generation k+1 from generation k's State
// converges in no more rounds than cold start and lands within warmTol of
// the cold-start output on every probability and accuracy.
func TestFuseCompiledWarmWithinToleranceOfCold(t *testing.T) {
	xs := warmStream(4000)
	split := len(xs) - len(xs)/10
	cfg := DefaultConfig()
	cfg.SiteLevel = true
	cfg.Rounds = 100 // let the 1e-4 threshold terminate; R=5 is a forced cut

	base := extract.Compile(xs[:split], true)
	_, prev, err := FuseCompiledWarm(base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	next := base.Append(xs[split:])
	cold, _, err := FuseCompiledWarm(next, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, nextState, err := FuseCompiledWarm(next, cfg, prev)
	if err != nil {
		t.Fatal(err)
	}

	if cold.Rounds >= cfg.Rounds {
		t.Fatalf("cold start did not converge within %d rounds; test scenario broken", cfg.Rounds)
	}
	if warm.Rounds > cold.Rounds {
		t.Errorf("warm start took %d rounds, cold %d — warm must not be slower to converge", warm.Rounds, cold.Rounds)
	}
	if len(warm.Triples) != len(cold.Triples) {
		t.Fatalf("%d triples, want %d", len(warm.Triples), len(cold.Triples))
	}
	maxDrift := 0.0
	for i := range warm.Triples {
		w, c := warm.Triples[i], cold.Triples[i]
		if w.Triple != c.Triple || w.Provenances != c.Provenances || w.Extractors != c.Extractors {
			t.Fatalf("triple %d: structural mismatch %+v vs %+v", i, w, c)
		}
		if d := math.Abs(w.Probability - c.Probability); d > maxDrift {
			maxDrift = d
		}
	}
	for src, a := range warm.ProvAccuracy {
		if d := math.Abs(a - cold.ProvAccuracy[src]); d > maxDrift {
			maxDrift = d
		}
	}
	if maxDrift > warmTol {
		t.Errorf("warm-vs-cold drift %.2e exceeds warmTol %.0e", maxDrift, warmTol)
	}
	t.Logf("warm rounds %d vs cold %d; max drift %.2e", warm.Rounds, cold.Rounds, maxDrift)

	if len(nextState.SrcAcc) != next.NumSources() || len(nextState.Recall) != next.NumExtractors() {
		t.Fatalf("returned State sized %d/%d, want %d/%d",
			len(nextState.SrcAcc), len(nextState.Recall), next.NumSources(), next.NumExtractors())
	}
}

// TestFuseCompiledWarmDeterministicAcrossWorkers pins that warm start
// preserves the bitwise worker-independence contract.
func TestFuseCompiledWarmDeterministicAcrossWorkers(t *testing.T) {
	xs := warmStream(1500)
	split := 1300
	cfg := DefaultConfig()
	cfg.SiteLevel = false

	base := extract.Compile(xs[:split], false)
	_, prev, err := FuseCompiledWarm(base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	next := base.Append(xs[split:])
	var first *fusion.Result
	for _, workers := range []int{1, 2, 3, 7, 8} {
		c := cfg
		c.Workers = workers
		res, _, err := FuseCompiledWarm(next, c, prev)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Rounds != first.Rounds {
			t.Fatalf("workers=%d: rounds %d vs %d", workers, res.Rounds, first.Rounds)
		}
		for i := range res.Triples {
			if res.Triples[i] != first.Triples[i] {
				t.Fatalf("workers=%d: triple %d differs bitwise", workers, i)
			}
		}
		for src, a := range res.ProvAccuracy {
			if a != first.ProvAccuracy[src] {
				t.Fatalf("workers=%d: accuracy of %q differs bitwise", workers, src)
			}
		}
	}
}
