package fusion

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"kfusion/internal/kb"
)

// The compiled engine (Fuse) must reproduce the seed shuffle-per-round
// engine (FuseReference) on every method and refinement. Summation orders
// differ between the two pipelines, so floating-point values are compared at
// 1e-12; everything discrete (triple set, support counts, prediction flags,
// rounds) must match exactly.

const equivTol = 1e-12

func assertEquivalent(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Errorf("%s: Rounds = %d, want %d", name, got.Rounds, want.Rounds)
	}
	if got.Unpredicted != want.Unpredicted {
		t.Errorf("%s: Unpredicted = %d, want %d", name, got.Unpredicted, want.Unpredicted)
	}
	if len(got.Triples) != len(want.Triples) {
		t.Fatalf("%s: %d triples, want %d", name, len(got.Triples), len(want.Triples))
	}
	wantBy := want.ByTriple()
	for _, g := range got.Triples {
		w, ok := wantBy[g.Triple]
		if !ok {
			t.Fatalf("%s: unexpected triple %v", name, g.Triple)
		}
		if g.Predicted != w.Predicted || g.Provenances != w.Provenances ||
			g.ItemProvenances != w.ItemProvenances || g.Extractors != w.Extractors {
			t.Errorf("%s: %v support mismatch: %+v vs %+v", name, g.Triple, g, w)
		}
		if g.Predicted && math.Abs(g.Probability-w.Probability) > equivTol {
			t.Errorf("%s: %v probability %v, want %v (Δ=%g)", name, g.Triple,
				g.Probability, w.Probability, g.Probability-w.Probability)
		}
	}
	if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
		t.Fatalf("%s: %d provenances, want %d", name, len(got.ProvAccuracy), len(want.ProvAccuracy))
	}
	for p, a := range got.ProvAccuracy {
		wa, ok := want.ProvAccuracy[p]
		if !ok {
			t.Fatalf("%s: unexpected provenance %q", name, p)
		}
		if math.Abs(a-wa) > equivTol {
			t.Errorf("%s: ProvAccuracy[%q] = %v, want %v", name, p, a, wa)
		}
	}
}

// equivalenceConfigs covers every method plus each §4.3 refinement the
// engines must agree on.
func equivalenceConfigs() map[string]Config {
	goldLabeler := func(tr kb.Triple) (bool, bool) {
		// Label roughly half the triples, call a third of those false.
		h := kb.Triple.Hash(tr)
		return h%3 != 0, h%2 == 0
	}
	cfgs := map[string]Config{
		"vote":    VoteConfig(),
		"accu":    AccuConfig(),
		"popaccu": PopAccuConfig(),
	}
	cov := PopAccuConfig()
	cov.FilterByCoverage = true
	cfgs["coverage"] = cov

	thr := PopAccuConfig()
	thr.AccuracyThreshold = 0.6
	cfgs["threshold"] = thr

	// ACCU through both filters: the coverage filter and θ's fallback to
	// the mean accuracy of an item's provenances.
	accuFilters := AccuConfig()
	accuFilters.FilterByCoverage = true
	accuFilters.AccuracyThreshold = 0.6
	cfgs["accu/filters"] = accuFilters

	plusUnsup := PopAccuPlusUnsupConfig()
	cfgs["popaccu+unsup"] = plusUnsup

	plus := PopAccuPlusConfig(goldLabeler)
	cfgs["popaccu+"] = plus

	rate := PopAccuPlusConfig(goldLabeler)
	rate.GoldSampleRate = 0.4
	cfgs["goldrate"] = rate

	// A run capped at R rounds ends on round R's probabilities, so the
	// engines agree at every round prefix, not only on the converged tail.
	for _, base := range []string{"popaccu", "popaccu+unsup"} {
		for r := 1; r <= 3; r++ {
			c := cfgs[base]
			c.Rounds = r
			cfgs[fmt.Sprintf("%s/R=%d", base, r)] = c
		}
	}
	return cfgs
}

// TestCompiledEngineMatchesReferenceItemSampling pins the item-level L
// sampling: the compiled engine feeds each item's reservoir the same claim
// stream with the same seed as the seed engine, so the sampled subsets are
// identical. (Provenance-level stage II sampling is the one documented
// divergence: the reservoir consumes probabilities in compiled claim order
// rather than shuffle emission order, so under a triggering SampleL the
// sampled subset — though equally sized and equally deterministic — can
// differ. The configs here keep per-provenance volumes under L.)
func TestCompiledEngineMatchesReferenceItemSampling(t *testing.T) {
	// Many provenances with at most 2 claims each, concentrated on two
	// items with hundreds of claims: item sampling triggers at L=32,
	// provenance sampling never does.
	var claims []Claim
	for i := 0; i < 220; i++ {
		prov := fmt.Sprintf("prov-%03d", i)
		val := fmt.Sprintf("v%d", i%3)
		claims = append(claims, cl("s1", "p", val, prov))
		if i%2 == 0 {
			claims = append(claims, cl("s2", "p", val, prov))
		}
	}
	for _, method := range []Config{VoteConfig(), AccuConfig(), PopAccuConfig()} {
		cfg := method
		cfg.SampleL = 32
		cfg.SampleSeed = 7
		want, err := FuseReference(claims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Fuse(claims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, fmt.Sprintf("itemsample/%v", cfg.Method), got, want)
	}
}

// TestCompiledSamplingWorkerIndependent pins that even under aggressive
// sampling at both levels, the compiled engine's output is exactly
// independent of Workers (reservoirs consume fixed CSR orders).
func TestCompiledSamplingWorkerIndependent(t *testing.T) {
	claims := randomClaims(7, 400)
	cfg := PopAccuConfig()
	cfg.SampleL = 8
	cfg.SampleSeed = 3
	base := MustFuse(claims, cfg)
	baseBy := base.ByTriple()
	for _, workers := range []int{1, 3, 8} {
		c := cfg
		c.Workers = workers
		got := MustFuse(claims, c)
		if len(got.Triples) != len(base.Triples) {
			t.Fatalf("workers=%d: result size changed", workers)
		}
		for _, f := range got.Triples {
			if baseBy[f.Triple] != f {
				t.Fatalf("workers=%d: %v differs: %+v vs %+v", workers, f.Triple, f, baseBy[f.Triple])
			}
		}
		for p, a := range got.ProvAccuracy {
			if base.ProvAccuracy[p] != a {
				t.Fatalf("workers=%d: ProvAccuracy[%q] differs", workers, p)
			}
		}
	}
}

func TestCompiledEngineMatchesReference(t *testing.T) {
	for _, size := range []int{1, 7, 60, 400} {
		claims := randomClaims(int64(size)*31+1, size)
		for name, cfg := range equivalenceConfigs() {
			want, err := FuseReference(claims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Fuse(claims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, fmt.Sprintf("%s/n=%d", name, size), got, want)
		}
	}
}

func TestCompiledEngineMatchesReferenceAcrossWorkers(t *testing.T) {
	claims := randomClaims(424242, 300)
	for name, cfg := range equivalenceConfigs() {
		want, err := FuseReference(claims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			c := cfg
			c.Workers = workers
			got, err := Fuse(claims, c)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, fmt.Sprintf("%s/workers=%d", name, workers), got, want)
		}
	}
}

// TestGoldSamplingFoldsSignedZero holds gold-label sampling to the triple's
// value, not the sign its zero object arrived with. The interning tables fold
// −0 onto +0, so the graph keeps whichever zero came first, while the
// reference engine and the caller's claims keep both. Y asserts (s,p,+0)
// first; X then asserts (s,p,−0) and (s,p,7), and X is picked so that the
// sampling hash of (X, s p 0) and that of (X, s p −0) fall on either side of
// the rate. The compiled graph, its decoded snapshot and the reference engine
// must fuse alike.
func TestGoldSamplingFoldsSignedZero(t *testing.T) {
	num := func(v float64, prov string) Claim {
		return Claim{Triple: kb.Triple{Subject: "s", Predicate: "p", Object: kb.NumberObject(v)}, Prov: prov, Conf: -1}
	}
	const rate = 0.5
	x := ""
	for k := 0; k < 64 && x == ""; k++ {
		p := fmt.Sprintf("X%d", k)
		if (hashUnit(p, "s\tp\tn:0") < rate) != (hashUnit(p, "s\tp\tn:-0") < rate) {
			x = p
		}
	}
	if x == "" {
		t.Fatal("scenario broken: no provenance key samples +0 and −0 apart")
	}
	claims := []Claim{num(0, "Y"), num(math.Copysign(0, -1), x), num(7, x)}
	cfg := PopAccuConfig()
	cfg.GoldLabeler = func(tr kb.Triple) (bool, bool) { return tr.Object.Num == 0, true }
	cfg.GoldSampleRate = rate

	c := MustCompile(claims)
	var buf bytes.Buffer
	if err := c.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FuseReference(claims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiled := c.MustFuse(cfg)
	assertBitIdentical(t, "decoded vs compiled", decoded.MustFuse(cfg), compiled)
	assertEquivalent(t, "compiled vs reference", compiled, ref)
}
