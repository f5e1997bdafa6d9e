package fusion

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
)

// growingClaims is a conflict-heavy random claim stream whose item and
// provenance spaces widen with the index: every batch adds claims to items
// and provenances earlier batches already hold (so per-item reservoir samples
// and filter outcomes shift between generations) and brings new ones.
func growingClaims(seed int64, n int) []Claim {
	rng := rand.New(rand.NewSource(seed))
	seen := map[provTriple]bool{}
	out := make([]Claim, 0, n)
	for i := 0; len(out) < n; i++ {
		c := Claim{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(12+i/12))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", rng.Intn(2))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(4))),
			},
			Prov:      fmt.Sprintf("prov%d", rng.Intn(40+i/15)),
			Extractor: fmt.Sprintf("X%d", rng.Intn(5)),
		}
		if k := (provTriple{c.Prov, c.Triple}); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// lockstepChain is K graphs grown batch by batch with their provenance table
// — what internal/shard's coordinator keeps, rebuilt here so the engine
// hand-off can be watched from inside the package. K = 1 runs the driver's
// identity path (nil table), the public FuseWarm's.
type lockstepChain struct {
	graphs []*Compiled
	provs  *csr.IDTable
}

func newLockstepChain(k int) *lockstepChain {
	c := &lockstepChain{graphs: make([]*Compiled, k)}
	if k > 1 {
		c.provs = csr.NewIDTable(k)
	}
	return c
}

func (c *lockstepChain) append(claims []Claim) {
	k := len(c.graphs)
	parts := make([][]Claim, k)
	for _, cl := range claims {
		s := int(cl.Triple.Item().Hash() % uint64(k))
		parts[s] = append(parts[s], cl)
	}
	for s, g := range c.graphs {
		if g == nil {
			g = MustCompile(parts[s])
		} else {
			g = g.MustAppend(parts[s])
		}
		c.graphs[s] = g
		if c.provs != nil {
			c.provs.Extend(s, g.NumProvenances(), func(p int32) string { return g.ProvKey(int(p)) })
		}
	}
}

func (c *lockstepChain) fuse(t *testing.T, cfg Config, prev *Seed) *Posterior {
	t.Helper()
	post, err := FuseLockstep(c.graphs, c.provs, cfg, prev)
	if err != nil {
		t.Fatal(err)
	}
	return post
}

// withoutEngines is s as a second successor finds it: the same columns, so
// it seeds by ID, and no engines to take.
func withoutEngines(s *Seed) *Seed {
	if s == nil {
		return nil
	}
	return &Seed{keys: s.keys, acc: s.acc}
}

func requireSamePosterior(t *testing.T, tag string, got, want *Posterior) {
	t.Helper()
	assertBitIdentical(t, tag, got.Result(), want.Result())
}

// engineBuffers lists the first word of every large buffer an engine owns, to
// tell whether two engines share memory.
func engineBuffers(e *engine) []any {
	var out []any
	if len(e.provAcc) > 0 {
		out = append(out, &e.provAcc[0], &e.provDefault[0], &e.provTerm[0])
	}
	if len(e.partSums) > 0 {
		out = append(out, &e.partSums[0], &e.partCnts[0])
	}
	if len(e.claimProb) > 0 {
		out = append(out, &e.claimProb[0])
	}
	if len(e.claimStamp) > 0 {
		out = append(out, &e.claimStamp[0])
	}
	for w := range e.scratches {
		if sc := &e.scratches[w]; len(sc.counts) > 0 {
			out = append(out, &sc.counts[0], &sc.aux[0], &sc.scores[0], &sc.probs[0])
		}
	}
	return out
}

func requireDisjointEngines(t *testing.T, tag string, a, b *Seed) {
	t.Helper()
	if len(a.engines.Held()) == 0 || len(b.engines.Held()) == 0 {
		t.Fatalf("%s: a posterior carries no engines", tag)
	}
	seen := map[any]bool{}
	for _, e := range a.engines.Held() {
		seen[e] = true
		for _, p := range engineBuffers(e) {
			seen[p] = true
		}
	}
	for _, e := range b.engines.Held() {
		if seen[e] {
			t.Fatalf("%s: the two results hold the same engine", tag)
		}
		for _, p := range engineBuffers(e) {
			if seen[p] {
				t.Fatalf("%s: the two results' engines share a buffer", tag)
			}
		}
	}
}

// TestRecycledEnginesMatchFresh walks a chain whose round budget goes cold 5
// → warm 1 → warm 3 → … over growing graphs, for one graph and four, one
// worker and four, with and without the §4.3.2 filters and with a reservoir
// small enough that an item's scored claims change from one generation to
// the next. Every generation is fused twice from the same dense seed: on the
// engines handed on by the previous generation's posterior, and on fresh
// ones. The two must agree in every bit — in particular a stamp left by an
// earlier generation's round 1, 2 or 3 must never pass for this one's — and
// the hand-off must really happen: from the first seeded generation on (the
// cold one keeps no engines), the engine objects and, while the graph fits,
// their buffers are the previous generation's.
func TestRecycledEnginesMatchFresh(t *testing.T) {
	claims := growingClaims(31, 3600)
	budgets := []int{5, 1, 3, 1, 1, 3, 2, 1}
	sampled := PopAccuConfig()
	sampled.SampleL = 3
	sampled.Epsilon = 1e-12 // never converges: every budget is run in full
	filtered := PopAccuPlusUnsupConfig()
	filtered.SampleL = 5
	filtered.Epsilon = 1e-12
	accu := AccuConfig()
	accu.SampleL = 4
	accu.Epsilon = 1e-12
	for name, base := range map[string]Config{"popaccu": sampled, "popaccu+unsup": filtered, "accu": accu} {
		for _, k := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				tag := fmt.Sprintf("%s K=%d workers=%d", name, k, workers)
				chain := newLockstepChain(k)
				var prev *Seed
				reused, regrown := 0, 0
				for step, rounds := range budgets {
					lo, hi := 0, 2000
					if step > 0 {
						lo, hi = 2000+200*(step-1), 2000+200*step
					}
					chain.append(claims[lo:hi])
					cfg := base
					cfg.Rounds, cfg.Workers = rounds, workers
					fresh := chain.fuse(t, cfg, withoutEngines(prev))

					var handed []*engine
					var buffers [][]any
					if prev != nil {
						handed = append(handed, prev.engines.Held()...)
						for _, e := range handed {
							buffers = append(buffers, engineBuffers(e))
						}
					}
					got := chain.fuse(t, cfg, prev)
					requireSamePosterior(t, fmt.Sprintf("%s step %d (%d rounds)", tag, step, rounds), got, fresh)
					if got.Rounds != rounds {
						t.Fatalf("%s step %d: ran %d rounds of %d; the budget sequence is the scenario", tag, step, got.Rounds, rounds)
					}
					for s, e := range handed {
						if got.seed.engines.Held()[s] != e {
							t.Fatalf("%s step %d: shard %d ran on a new engine, not the one its predecessor handed on", tag, step, s)
						}
						for i, p := range engineBuffers(e) {
							if i < len(buffers[s]) && p == buffers[s][i] {
								reused++
							} else {
								regrown++
							}
						}
					}
					switch {
					case prev == nil:
						if got.seed.engines.Held() != nil {
							t.Fatalf("%s: an unseeded run's posterior carries engines", tag)
						}
					case prev.engines.Held() != nil:
						t.Fatalf("%s step %d: the seed still holds its engines after a successor took them", tag, step)
					case step > 1 && handed == nil:
						t.Fatalf("%s step %d: a seeded generation handed no engines on", tag, step)
					default:
						requireDisjointEngines(t, tag, got.seed, fresh.seed)
					}
					prev = got.seed
				}
				if reused == 0 {
					t.Fatalf("%s: no buffer survived a hand-off", tag)
				}
				t.Logf("%s: %d buffers reused, %d regrown", tag, reused, regrown)
			}
		}
	}
}

// TestEngineHandOffIsExclusive covers the seeds that must not get a
// predecessor's engines, each against the fresh-engine bits of a decoded
// seed: two successors of one result (A→B chained, A→B' forked — only the
// first may take A's engines), a by-key seed and a seed from another shard
// count; an unseeded run keeps none to hand on; and a result whose engines
// went to a successor must keep answering Row and Result from its own
// columns.
func TestEngineHandOffIsExclusive(t *testing.T) {
	claims := shardedClaims(6000)
	cold := PopAccuConfig()
	warm := cold
	warm.Rounds = 1
	a, n := chainWithTail(t, claims, 1000)
	b := a.MustAppend(claims[n : n+100])
	fork := a.MustAppend(growingClaims(5, 150))

	unseeded := a.MustFuse(cold)
	if unseeded.seed.engines.Held() != nil {
		t.Fatal("an unseeded run's result pins engines")
	}
	postA, err := FuseLockstep([]*Compiled{a}, nil, warm, unseeded.Seed())
	if err != nil {
		t.Fatal(err)
	}
	resA := postA.Result()
	before := viaMap(t, resA)
	engineA := resA.seed.engines.Held()[0]
	resB := b.MustFuseWarm(warm, resA)
	resFork := fork.MustFuseWarm(warm, resA)
	if resB.seed.engines.Held()[0] != engineA {
		t.Fatal("the first successor did not take its predecessor's engine")
	}
	if resFork.seed.engines.Held()[0] == engineA {
		t.Fatal("a second successor runs on the engine the first one took")
	}
	requireDisjointEngines(t, "B and B'", resB.seed, resFork.seed)
	assertBitIdentical(t, "A→B", resB, b.MustFuseWarm(warm, viaMap(t, resA)))
	assertBitIdentical(t, "A→B'", resFork, fork.MustFuseWarm(warm, viaMap(t, resA)))
	assertBitIdentical(t, "A after two successors", postA.Result(), before)
	for i := range before.Triples {
		if postA.Row(i) != before.Triples[i] {
			t.Fatalf("row %d of A changed after its engines moved on", i)
		}
	}

	// Seeds that keep their engines: the successor builds its own.
	held := resB.seed.engines.Held()[0]
	byKey := b.MustFuseWarm(warm, &Result{ProvAccuracy: resB.ProvAccuracy})
	if byKey.seed.engines.Held()[0] == held || resB.seed.engines.Held() == nil {
		t.Fatal("a by-key seed handed on engines")
	}
	chain4 := newLockstepChain(4)
	chain4.append(claims[:n+100])
	four := chain4.fuse(t, warm, resB.Seed())
	for _, e := range four.seed.engines.Held() {
		if e == held {
			t.Fatal("a one-graph posterior's engine went to a four-graph run")
		}
	}
	if resB.seed.engines.Held() == nil || resB.seed.engines.Held()[0] != held {
		t.Fatal("a seed another shard count could not use lost its engines")
	}
	if one, err := FuseLockstep([]*Compiled{b}, nil, warm, four.Seed()); err != nil {
		t.Fatal(err)
	} else if len(four.seed.engines.Held()) != 4 || len(one.seed.engines.Held()) != 1 {
		t.Fatalf("a four-graph seed into one graph: seed keeps %d engines, run holds %d", len(four.seed.engines.Held()), len(one.seed.engines.Held()))
	}
}

// TestConcurrentSuccessorsOfOneResult runs two FuseWarm calls at once from
// the same previous result (under -race in CI): exactly one takes its
// engines, the other builds its own, both produce the fresh-engine bits and
// the two never share a buffer.
func TestConcurrentSuccessorsOfOneResult(t *testing.T) {
	claims := growingClaims(9, 3000)
	cfg := PopAccuConfig()
	cfg.Workers = 2
	g := MustCompile(claims[:2000])
	cold := g.MustFuse(cfg)
	cfg.Rounds = 2
	prev := g.MustFuseWarm(cfg, cold) // seeded, so it has engines to hand on
	for step := 0; step < 5; step++ {
		g = g.MustAppend(claims[2000+200*step : 2200+200*step])
		want := g.MustFuseWarm(cfg, viaMap(t, prev))
		handed := prev.seed.engines.Held()[0]
		var got [2]*Result
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = g.MustFuseWarm(cfg, prev)
			}()
		}
		wg.Wait()
		tag := fmt.Sprintf("step %d", step)
		assertBitIdentical(t, tag, got[0], want)
		assertBitIdentical(t, tag, got[1], want)
		requireDisjointEngines(t, tag, got[0].seed, got[1].seed)
		if took := (got[0].seed.engines.Held()[0] == handed) != (got[1].seed.engines.Held()[0] == handed); !took {
			t.Fatalf("%s: of two concurrent successors, not exactly one runs on the predecessor's engine", tag)
		}
		prev = got[step%2]
	}
}

// engineBytes is the memory an engine holds in its own buffers, by capacity:
// the per-provenance and per-claim columns, the stage-II partials, the
// log-count table, the block cut and every worker's scratch.
func engineBytes(e *engine) int {
	n := 8*cap(e.provAcc) + cap(e.provDefault) + 8*cap(e.provTerm) +
		8*cap(e.claimProb) + 4*cap(e.claimStamp) +
		8*cap(e.partSums) + 4*cap(e.partCnts) + 8*cap(e.logCount) +
		int(unsafe.Sizeof(csr.Block{}))*cap(e.provBlocks) + 4*cap(e.provBlockStart)
	for _, sc := range e.scratches {
		n += 4*cap(sc.counts) + 8*cap(sc.aux) + 8*cap(sc.scores) + 8*cap(sc.probs) +
			4*cap(sc.selCov) + 4*cap(sc.selAcc) + 16*cap(sc.parts)
	}
	return n
}

// TestWarmEngineSizeBound pins what a one-graph warm chain's engine holds
// under an unfiltered config: every claim is scored every round, so there is
// no stamp column, and stage II divides in place, so there are no partial
// columns — 4 bytes per claim and 12 per provenance less than an engine that
// holds them. What is left is 8 bytes per claim (its probability), 17 per
// provenance (accuracy, default flag, log-score term) and the per-item
// scratch, with regrow's headroom. A filtered config and a K = 2 chain are
// the controls: the first holds stamps, the second partials.
func TestWarmEngineSizeBound(t *testing.T) {
	claims := growingClaims(9, 6000)
	held := func(k int, cfg Config) *engine {
		c := newLockstepChain(k)
		c.append(claims[:4000])
		post := c.fuse(t, cfg, nil)
		for at := 4000; at < len(claims); at += 500 {
			c.append(claims[at : at+500])
			post = c.fuse(t, cfg, post.Seed())
		}
		return post.seed.engines.Held()[0]
	}
	cfg := PopAccuConfig()
	cfg.Rounds = 1
	e := held(1, cfg)
	if e.claimStamp != nil || e.partSums != nil || e.partCnts != nil {
		t.Fatalf("an unfiltered one-graph engine holds %d stamps and %d/%d partials", cap(e.claimStamp), cap(e.partSums), cap(e.partCnts))
	}
	nClaims, nProvs := e.g.numClaims(), len(e.g.provKeys)
	got := engineBytes(e)
	// Columns at up to 1.5× headroom, the log-count table and the scratch for
	// the widest item. A stamp column would add 4.8 bytes a claim past it.
	bound := (8*nClaims+17*nProvs)*3/2 + 16*(e.g.maxItemClaims+1) + len(e.scratches)*(36*e.g.maxCandidates+64)
	t.Logf("%d claims, %d provenances: the engine holds %d bytes (bound %d)", nClaims, nProvs, got, bound)
	if got > bound {
		t.Fatalf("the engine holds %d bytes, bound %d", got, bound)
	}
	filtered := cfg
	filtered.FilterByCoverage = true
	if e := held(1, filtered); len(e.claimStamp) != e.g.numClaims() {
		t.Fatalf("a filtered engine holds %d stamps for %d claims", len(e.claimStamp), e.g.numClaims())
	}
	if e := held(2, cfg); len(e.partSums) != len(e.g.provKeys) {
		t.Fatalf("a K=2 engine holds %d partials for %d provenances", len(e.partSums), len(e.g.provKeys))
	}
}
