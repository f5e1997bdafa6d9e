package fusion

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kfusion/internal/csr"
)

// fuzzClaims flattens a fuzzFeed world (colliding values, ±0 objects) under
// one of two granularities and repeats a claim wherever a world byte says so,
// so duplicate claims — one provenance asserting one triple twice — reach the
// engines as well.
func fuzzClaims(world []byte, n int, mode byte) []Claim {
	gran := GranExtractorURL
	if mode&1 == 1 {
		gran = GranExtractorSitePredPattern
	}
	claims := Claims(fuzzFeed(world, n), gran)
	out := make([]Claim, 0, len(claims)+len(claims)/4)
	for i, c := range claims {
		out = append(out, c)
		if len(world) > 0 && world[i%len(world)]&7 == 0 {
			out = append(out, c)
		}
	}
	return out
}

// onThetaConfig is POPACCU+unsup with θ exactly on the accuracy one
// provenance reaches after its first round in both engines — the
// 0.49999999999999994 case of the bench dataset, where one bit of a sum
// decides the filter. Round 0 keeps every claim (every accuracy is the
// default, and θ is at most the default), so that provenance meets θ exactly
// in round 1. The provenance is one whose round-1 accuracy the compiled
// engine and the reference agree on bit for bit, so the reference comparison
// stays meaningful; ok is false when there is none.
func onThetaConfig(t *testing.T, c *Compiled, claims []Claim, pick byte) (cfg Config, ok bool) {
	base := PopAccuPlusUnsupConfig()
	base.AccuracyThreshold = 0
	base.Rounds = 1
	got, err := c.Fuse(base)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustFuseReference(t, claims, base)
	var on []float64
	for _, key := range c.ProvKeys() {
		a, ok := got.ProvAccuracy[key]
		if ok && a > 0 && a <= base.DefaultAccuracy && a == ref.ProvAccuracy[key] && !slices.Contains(on, a) {
			on = append(on, a)
		}
	}
	if len(on) == 0 {
		return Config{}, false
	}
	cfg = PopAccuPlusUnsupConfig()
	cfg.AccuracyThreshold = on[int(pick)%len(on)]
	return cfg, true
}

// checkStageII is the stage-II oracle of one round: each provenance within
// one reduction block and under SampleL must report the left-to-right sum of
// the probabilities of its claims scored in the round, and their count.
func checkStageII(t *testing.T, tag string, run *Run, round int, sums []float64, cnts []int32) {
	t.Helper()
	e, g := run.e, run.e.g
	for p := range cnts {
		span := g.provClaims[g.provClaimStart[p]:g.provClaimStart[p+1]]
		if len(span) > csr.ReduceBlockSize || len(span) > e.cfg.SampleL {
			continue
		}
		sum, cnt := 0.0, int32(0)
		for _, c := range span {
			if !e.stamped || e.claimStamp[c] == int32(round+1) {
				sum += e.claimProb[c]
				cnt++
			}
		}
		if cnt != cnts[p] || math.Float64bits(sum) != math.Float64bits(sums[p]) {
			t.Fatalf("%s: round %d: provenance %d reports (%v, %d), its claims (%v, %d)", tag, round, p, sums[p], cnts[p], sum, cnt)
		}
	}
}

// checkStageIII is the stage-III oracle: a triple's probability is the one
// every claim of it scored in the last round carries — all of them alike — or
// -1 when none was scored.
func checkStageIII(t *testing.T, tag string, run *Run, post *Posterior) {
	t.Helper()
	e, g := run.e, run.e.g
	for tr := range g.triples {
		want, scored := -1.0, false
		for _, c := range g.tripleClaims[g.tripleClaimStart[tr]:g.tripleClaimStart[tr+1]] {
			if e.stamped && e.claimStamp[c] != run.lastStamp {
				continue
			}
			if scored && math.Float64bits(e.claimProb[c]) != math.Float64bits(want) {
				t.Fatalf("%s: triple %d: its claims carry %v and %v", tag, tr, want, e.claimProb[c])
			}
			want, scored = e.claimProb[c], true
		}
		if got := post.Prob(tr); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: triple %d has probability %v, its claims %v", tag, tr, got, want)
		}
	}
}

// oracleFuse is stepFuse with both stage oracles watching: stage II after
// every round, stage III on the result.
func oracleFuse(t *testing.T, tag string, c *Compiled, cfg Config) *Result {
	t.Helper()
	run, err := c.NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := stepRounds(run, cfg, func(round int, sums []float64, cnts []int32) {
		checkStageII(t, tag, run, round, sums, cnts)
	})
	post := finish([]*Run{run}, csr.IdentityTable(c.g.provKeys), rounds, 1, cfg.Workers)
	checkStageIII(t, tag, run, post)
	return post.Result()
}

func mustFuseReference(t *testing.T, claims []Claim, cfg Config) *Result {
	t.Helper()
	r, err := FuseReference(claims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// withStamps runs f with the alwaysStamp hook set on every graph of cs.
func withStamps(cs []*Compiled, f func()) {
	for _, c := range cs {
		c.g.alwaysStamp = true
	}
	defer func() {
		for _, c := range cs {
			c.g.alwaysStamp = false
		}
	}()
	f()
}

// FuzzClaimEngine is the differential contract of the compiled claim engine
// on generated claim sets (fuzzClaims: colliding values, ±0 objects,
// duplicate claims), for every method and refinement of equivalenceConfigs
// plus a θ that one provenance's accuracy sits exactly on:
//
//   - the compiled engine equals FuseReference within equivTol;
//   - Workers 1, 3 and 8 give the same bits;
//   - the step API under the stage-II and stage-III oracles gives Fuse's bits
//     (configs without a gold labeler, which the step API does not seed);
//   - the stamped passes (alwaysStamp: what a run takes when claims can go
//     unscored) give the same bits as the stamp-free ones, at one graph and
//     at three;
//   - K = 2..5 shard graphs agree with one within equivTol (not on θ, where
//     a re-grouped sum may land on either side of the filter).
func FuzzClaimEngine(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(300), byte(0))
	f.Add([]byte{7, 1, 2, 200, 33, 9, 7, 1, 3, 90, 17, 0, 5, 64, 2, 5, 64, 3}, uint16(180), byte(5))
	f.Add([]byte{1, 2, 3}, uint16(40), byte(2))
	f.Add(signedZeroWorld, uint16(2), byte(1))
	f.Fuzz(func(t *testing.T, world []byte, size uint16, mode byte) {
		claims := fuzzClaims(world, 1+int(size)%700, mode)
		if len(claims) == 0 {
			return
		}
		c, err := CompileWorkers(claims, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := equivalenceConfigs()
		names := make([]string, 0, len(cfgs)+1)
		for name := range cfgs {
			names = append(names, name)
		}
		slices.Sort(names)
		if cfg, ok := onThetaConfig(t, c, claims, mode>>1); ok {
			cfgs["on θ"] = cfg
			names = append(names, "on θ")
		}
		for _, name := range names {
			cfg := cfgs[name]
			ref := mustFuseReference(t, claims, cfg)
			var want *Result
			for _, w := range []int{1, 3, 8} {
				cfg.Workers = w
				got := c.MustFuse(cfg)
				if want == nil {
					assertEquivalent(t, name+": compiled vs reference", got, ref)
					want = got
				}
				assertBitIdentical(t, fmt.Sprintf("%s: workers %d", name, w), got, want)
			}
			cfg.Workers = 3
			if cfg.GoldLabeler == nil {
				assertBitIdentical(t, name+": step API", oracleFuse(t, name, c, cfg), want)
			}
			three := newLockstepChain(3)
			three.append(claims)
			fast := three.fuse(t, cfg, nil).Result()
			withStamps(append([]*Compiled{c}, three.graphs...), func() {
				assertBitIdentical(t, name+": stamped", c.MustFuse(cfg), want)
				assertBitIdentical(t, name+": stamped, three graphs", three.fuse(t, cfg, nil).Result(), fast)
				if cfg.GoldLabeler == nil {
					assertBitIdentical(t, name+": stamped, step API", oracleFuse(t, name+" (stamped)", c, cfg), want)
				}
			})
			if name == "on θ" {
				continue
			}
			for k := 2; k <= 5; k++ {
				chain := fast
				if k != 3 {
					lc := newLockstepChain(k)
					lc.append(claims)
					chain = lc.fuse(t, cfg, nil).Result()
				}
				assertEquivalent(t, fmt.Sprintf("%s: K=%d vs K=1", name, k), chain, want)
			}
		}
	})
}
