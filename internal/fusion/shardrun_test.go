package fusion

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"kfusion/internal/kb"
)

// stepFuse is Compiled.Fuse (cold, no gold labeler) sequenced through the
// exported step API the way an outside caller does it: StageI, ProvPartials
// into the caller's own buffers, the quotient and the largest move, then
// SetProvAccuracy and, after the last round, Finish.
func stepFuse(t *testing.T, c *Compiled, cfg Config) *Result {
	t.Helper()
	run, err := c.NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run.Finish(stepRounds(run, cfg, nil))
}

// stepRounds is stepFuse's round loop over run; it returns the round count.
// check, when set, sees each round's partials before they are divided.
func stepRounds(run *Run, cfg Config, check func(round int, sums []float64, cnts []int32)) int {
	n := run.NumProvenances()
	acc := make([]float64, n)
	for p := range acc {
		acc[p] = cfg.DefaultAccuracy
	}
	sums, cnts := make([]float64, n), make([]int32, n)
	rounds := 0
	if cfg.Method == Vote {
		run.StageI(0)
		rounds = 1
	}
	for cfg.Method != Vote && rounds < cfg.Rounds {
		run.StageI(rounds)
		run.ProvPartials(rounds, sums, cnts)
		if check != nil {
			check(rounds, sums, cnts)
		}
		maxDelta := 0.0
		for p := range acc {
			if cnts[p] == 0 {
				continue
			}
			a := sums[p] / float64(cnts[p])
			if d := a - acc[p]; d > maxDelta {
				maxDelta = d
			} else if -d > maxDelta {
				maxDelta = -d
			}
			acc[p] = a
			run.SetProvAccuracy(int32(p), a)
		}
		rounds++
		if maxDelta < run.Epsilon() {
			break
		}
	}
	return rounds
}

// stepClaims is a claim set wide enough that stage II divides hundreds of
// distinct sums every round: 160 provenances over 1 500 data items.
func stepClaims(seed int64, n int) []Claim {
	rng := rand.New(rand.NewSource(seed))
	claims := make([]Claim, 0, n)
	for i := 0; i < n; i++ {
		claims = append(claims, Claim{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(500))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", rng.Intn(3))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(4))),
			},
			Prov: fmt.Sprintf("prov%d", rng.Intn(160)),
		})
	}
	return claims
}

// TestStepAPIMatchesFuse holds the exported step API — NewRun, StageI,
// ProvPartials, SetProvAccuracy, Finish, sequenced by the caller — to Fuse's
// exact bits. Fuse divides each provenance's statistic inside FuseLockstep's
// merge and a caller of the step API divides it itself, so this keeps the
// two the same quotient: rows, accuracies and round counts equal at every
// worker count, for each method, the unsupervised refinements, and a SampleL
// small enough that both the item and the provenance reservoirs run.
func TestStepAPIMatchesFuse(t *testing.T) {
	c := MustCompile(stepClaims(48, 6000))
	sampled := PopAccuConfig()
	sampled.SampleL = 8
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"vote", VoteConfig()},
		{"accu", AccuConfig()},
		{"popaccu", PopAccuConfig()},
		{"popaccu+unsup", PopAccuPlusUnsupConfig()},
		{"sampleL", sampled},
	}
	for _, tc := range cfgs {
		for _, workers := range []int{1, 2, 7} {
			cfg := tc.cfg
			cfg.Workers = workers
			want, err := c.Fuse(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := stepFuse(t, c, cfg)
			at := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			if got.Rounds != want.Rounds || got.Unpredicted != want.Unpredicted {
				t.Fatalf("%s: rounds %d, unpredicted %d; Fuse: %d, %d", at, got.Rounds, got.Unpredicted, want.Rounds, want.Unpredicted)
			}
			if i := firstDiff(got.Triples, want.Triples); i >= 0 {
				t.Fatalf("%s: row %d of %d is %+v, Fuse's %+v", at, i, len(want.Triples), got.Triples[i], want.Triples[i])
			}
			if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
				t.Fatalf("%s: %d accuracies, Fuse %d", at, len(got.ProvAccuracy), len(want.ProvAccuracy))
			}
			for _, key := range c.ProvKeys() {
				if a, ok := got.ProvAccuracy[key]; !ok || a != want.ProvAccuracy[key] {
					t.Fatalf("%s: accuracy of %q is %v, Fuse's %v", at, key, a, want.ProvAccuracy[key])
				}
			}
		}
	}
}

// firstDiff returns the first index where a and b differ (the shorter
// length when one is a proper prefix of the other), or -1 when they are
// equal.
func firstDiff(a, b []FusedTriple) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestShardEngineWorkers states how FuseLockstep splits Workers over K
// graphs: csr.SplitWorkers's share for each graph's own loops, except that a
// graph under smallGraphClaims runs on one worker when the caller left
// Workers at 0 — the rule one graph gets from rebind. An explicit Workers is
// honoured whatever a graph's size.
func TestShardEngineWorkers(t *testing.T) {
	// Workers 0 resolves through GOMAXPROCS; 8 gives every shard a share
	// above one, so the small-graph rule is what brings it down.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	c := newLockstepChain(4)
	c.append(stepClaims(7, 4000))
	for _, g := range c.graphs {
		if g.g.numClaims() >= smallGraphClaims {
			t.Fatalf("shard of %d claims: the test needs every shard under %d", g.g.numClaims(), smallGraphClaims)
		}
	}
	for _, tc := range []struct{ workers, want int }{{0, 1}, {2, 1}, {8, 2}, {13, 3}} {
		cfg := PopAccuConfig()
		cfg.Workers = tc.workers
		// Only a seeded run hands its engines on with the posterior.
		post := c.fuse(t, cfg, c.fuse(t, cfg, nil).Seed())
		for s, e := range post.seed.engines.Held() {
			if e.workers != tc.want {
				t.Errorf("Workers %d: shard %d engine runs %d workers, want %d", tc.workers, s, e.workers, tc.want)
			}
		}
	}
}

// TestProvPartialsNeedsItsRound holds ProvPartials to the round the last
// StageI scored: before any StageI, for a round StageI has not run and for
// an earlier one it panics, in a stamp-free run as in a stamped one, and it
// answers for the round that did run.
func TestProvPartialsNeedsItsRound(t *testing.T) {
	c := MustCompile(stepClaims(3, 600))
	filtered := PopAccuConfig()
	filtered.FilterByCoverage = true
	for _, cfg := range []Config{PopAccuConfig(), filtered} {
		run, err := c.NewRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if run.e.stamped != cfg.FilterByCoverage {
			t.Fatalf("filter %v: the run binds stamped=%v", cfg.FilterByCoverage, run.e.stamped)
		}
		n := run.NumProvenances()
		sums, cnts := make([]float64, n), make([]int32, n)
		panics := func(round int) (panicked bool) {
			defer func() { panicked = recover() != nil }()
			run.ProvPartials(round, sums, cnts)
			return
		}
		if !panics(0) {
			t.Errorf("filter %v: ProvPartials(0) before any StageI did not panic", cfg.FilterByCoverage)
		}
		run.StageI(0)
		run.StageI(1)
		for _, round := range []int{0, 2} {
			if !panics(round) {
				t.Errorf("filter %v: ProvPartials(%d) after StageI(1) did not panic", cfg.FilterByCoverage, round)
			}
		}
		run.ProvPartials(1, sums, cnts)
	}
}
