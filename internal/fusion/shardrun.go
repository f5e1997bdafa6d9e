package fusion

import (
	"fmt"
	"math"
	"slices"

	"kfusion/internal/csr"
)

// The EM round driver and the step engine it sequences.
//
// FuseLockstep is Figure 8's iteration — score items, re-estimate
// provenances, dedupe — for this model: the only place in this package where
// rounds are counted, gold labels initialize accuracies, a previous result
// seeds a warm start and VOTE takes its single pass. It runs on the lockstep
// skeleton (internal/csr, lockstep.go), one Run per graph: every Run scores
// its items (StageI) under the current global accuracies and reports each
// provenance's stage-II statistic (ProvPartials), and the driver folds a
// provenance's partials across the graphs holding it, divides, and
// broadcasts the new accuracy back (SetProvAccuracy). Fuse, (*Compiled).Fuse
// and (*Compiled).FuseWarm are its one-graph call; internal/shard's
// coordinators are the K-graph call, handing in the cross-shard provenance
// table they maintain across Appends.

// Run is the step engine over one compiled graph: the engine state with the
// EM stages exposed one at a time, for FuseLockstep (and for callers that
// time or trace the stages) to sequence. A Run never counts rounds. Not safe
// for concurrent use; one Run per goroutine.
type Run struct {
	c         *Compiled
	e         *engine
	lastStamp int32
}

// NewRun builds the step engine for one fusion configuration.
func (c *Compiled) NewRun(cfg Config) (*Run, error) {
	return c.newRun(cfg, nil)
}

// newRun is NewRun over a recycled engine when the driver has one to hand on
// (nil builds a fresh one): either way the engine is bound to c by the one
// sizing routine, engine.rebind.
func (c *Compiled) newRun(cfg Config, e *engine) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 1e-4
	}
	if e == nil {
		e = &engine{}
	}
	e.rebind(c.g, cfg)
	return &Run{c: c, e: e, lastStamp: 1}, nil
}

// NumProvenances reports the graph's provenance count — the length
// ProvPartials results are indexed by.
func (r *Run) NumProvenances() int { return len(r.e.g.provKeys) }

// Epsilon is the run's effective convergence threshold (the configured one,
// or the engine default) — the driver tests the merged delta against it.
func (r *Run) Epsilon() float64 { return r.e.cfg.Epsilon }

// SetProvAccuracy installs a provenance accuracy and marks the provenance
// evaluated (for the §4.3.2 coverage filter) — the broadcast half of the
// stage-II merge, also used to seed gold-initialized and warm-started
// accuracies.
func (r *Run) SetProvAccuracy(p int32, acc float64) {
	r.e.provAcc[p] = acc
	r.e.provDefault[p] = false
}

// StageI scores every data item with the current provenance accuracies as
// EM round `round` (0-based) and remembers the round's stamp for Finish.
func (r *Run) StageI(round int) {
	r.e.stageI(round)
	r.lastStamp = int32(round + 1)
}

// ProvPartials writes each provenance's stage-II statistic for `round` —
// the (probability sum, scored-claim count) pair whose quotient is the
// re-estimated accuracy — into sums and cnts (each of length
// NumProvenances), in parallel over chunks of the compiled provenance spans
// handed out at run time (a provenance writes only its own pair, on its
// worker's scratch).
// cnts[p] == 0 means provenance p scored no claims this round and must keep
// its current accuracy. Provenances above SampleL report their
// deterministic reservoir sample instead, so a provenance split across
// shards samples per shard — a documented K>1 divergence (never reached at
// the default SampleL).
func (r *Run) ProvPartials(round int, sums []float64, cnts []int32) {
	e := r.e
	stamp := int32(round + 1)
	e.parallelRange(len(e.g.provKeys), func(w, lo, hi int) {
		sc := &e.scratches[w]
		for p := lo; p < hi; p++ {
			sums[p], cnts[p] = e.provStat(sc, int32(p), stamp)
		}
	})
}

// Finish runs stage III against the last StageI's stamp and returns the
// graph's result in exchange form: fused triples in compiled order,
// Unpredicted counted, the local provenance-accuracy map, and Rounds as
// given. The Run stays the caller's: the result does not carry its engine.
func (r *Run) Finish(rounds int) *Result {
	return finish([]*Run{r}, csr.IdentityTable(r.e.g.provKeys), rounds, 1, r.e.cfg.Workers).Result()
}

// finish is the tail of a run: stage III of every graph into one
// probability column, one fork-join over the graphs (across at a time),
// then the current accuracies into one column in global-ID order. It
// returns the posterior over them, whose Result runs on workers.
func finish(runs []*Run, provs *csr.IDTable, rounds, across, workers int) *Posterior {
	graphs := make([]RowGraph, len(runs))
	starts := make([]int, len(runs)+1)
	for s, r := range runs {
		graphs[s] = r.c
		starts[s+1] = starts[s] + len(r.e.g.triples)
	}
	prob := make([]float64, starts[len(runs)])
	acc := make([]float64, provs.N())
	csr.ParallelEach(len(runs), across, func(s int) {
		r := runs[s]
		r.e.stageIII(r.lastStamp, prob[starts[s]:starts[s+1]])
	})
	// Every holder carries a provenance's accuracy, so whichever writes the
	// column last writes the same bits.
	for s, r := range runs {
		for local, a := range r.e.provAcc {
			acc[provs.Global(s, local)] = a
		}
	}
	return NewPosterior(graphs, prob, provs.Keys(), acc, rounds, workers)
}

// FuseLockstep runs one fusion configuration over 1..K compiled graphs in
// lockstep EM rounds and returns the merged posterior in its native form:
// one probability per triple in graph-major compiled order, one accuracy per
// global provenance ID, and the round count (Posterior.Result materialises
// the exchange form; the public Fuse calls do exactly that). graphs[i] must
// hold exactly the claims of the data items routed to it; provs maps each
// graph's local provenance IDs to global ones and is nil for a single graph
// (identity). Provenances prev holds an accuracy for start at that accuracy
// and count as evaluated; gold initialization (§4.3.3), when configured,
// overrides both the default and the seed for labeled provenances. The
// worker split, the one-graph identity and the engine hand-off are the
// lockstep skeleton's (internal/csr, lockstep.go); what follows is this
// model's part of them.
//
// The seed is dense when it can be. A posterior's Seed keeps its accuracies
// in global-ID order beside the key column those IDs index; when prev's key
// column is a prefix of this call's — prev came from an earlier generation
// of the same graph chain or the same coordinator table, whose IDs only grow
// at the end — the accuracies are installed by index and no string is
// hashed. The prefix test is exact: one pointer comparison when the two
// columns share a backing array, an element-wise comparison otherwise. Any
// other prev — read back from a decoded or hand-built Result (Result.Seed),
// from a fork, from another shard count or a rebuilt table — seeds by key;
// the two paths install the same values, so which one ran never shows in a
// result.
//
// Only a densely seeded call takes the engines prev's seed carries; a
// by-key or cold seed builds fresh ones. A taken engine is rebound by
// engine.rebind: buffers are reused or regrown with headroom, and every
// accuracy, default flag and claim stamp is reset.
//
// A graph under smallGraphClaims claims runs its loops on one worker when
// the caller left Workers at 0, as one graph does. A round is one fork-join
// over the graphs (StageI, then ProvPartials) followed by the merge, and
// stage III one more: at K = 4 on two workers a warm one-round step and its
// Result fork 5 times (set-up, round, merge, stage III, and the Result's
// accuracy map beside its rows), where every graph forking for each of its
// own loops took 21. VOTE takes a single stage-I pass and records no moves.
func FuseLockstep(graphs []*Compiled, provs *csr.IDTable, cfg Config, prev *Seed) (*Posterior, error) {
	if err := csr.CheckGraphs(graphs, provs != nil); err != nil {
		return nil, fmt.Errorf("fusion: %w", err)
	}
	if provs == nil {
		provs = csr.IdentityTable(graphs[0].g.provKeys)
	}
	nG := provs.N()
	keys := provs.Keys()
	// prev came from an earlier generation of this table: global IDs only
	// grow at the end, so its accuracies seed by index and its engines fit.
	dense := prev != nil && prev.byKey == nil && isPrefix(prev.keys, keys)
	var recycled []*engine
	if dense {
		recycled = prev.engines.Take(len(graphs))
	}
	var byKey map[string]float64
	if prev != nil && !dense {
		byKey = prev.accuracyMap()
	}

	// The step engines' own accuracy slots are the parameter store: every
	// holder of a provenance carries the same value, written only through
	// SetProvAccuracy, so the driver keeps no global copy. Every holder
	// looks up its own provenances' seeds as its engine is bound.
	lockstep, err := csr.Bind(len(graphs), cfg.Workers, recycled, func(s, within int, e *engine) (*Run, error) {
		gcfg := cfg
		gcfg.Workers = within
		if cfg.Workers <= 0 && graphs[s].g.numClaims() < smallGraphClaims {
			gcfg.Workers = 1
		}
		r, err := graphs[s].newRun(gcfg, e)
		if err != nil || prev == nil {
			return r, err
		}
		for local := range r.NumProvenances() {
			g := provs.Global(s, local)
			if dense {
				if int(g) < len(prev.acc) {
					r.SetProvAccuracy(int32(local), prev.acc[g])
				}
			} else if a, ok := byKey[keys[g]]; ok {
				r.SetProvAccuracy(int32(local), a)
			}
		}
		return r, nil
	}, func(r *Run) int { return r.e.workers })
	if err != nil {
		return nil, err
	}
	runs := lockstep.Runs
	if cfg.GoldLabeler != nil {
		// §4.3.3: a provenance starts at the clamped fraction of its
		// gold-labeled claims that are true. The counts are integers, so
		// summing them across shards before the one division is exact.
		trueG := make([]int64, nG)
		labeledG := make([]int64, nG)
		for s, r := range runs {
			trueN, labeled := r.e.goldCounts()
			for local := range labeled {
				g := provs.Global(s, local)
				trueG[g] += int64(trueN[local])
				labeledG[g] += int64(labeled[local])
			}
		}
		hold := make([]csr.Loc, 0, len(runs))
		for g := range labeledG {
			if labeledG[g] == 0 {
				continue // no labeled claims: keeps the default (or the seed)
			}
			install(runs, provs.Holders(g, hold), clampAcc(float64(trueG[g])/float64(labeledG[g])))
		}
	}

	rounds := 1
	var moves []float64
	if cfg.Method == Vote {
		csr.ParallelEach(len(runs), lockstep.Across, func(s int) { runs[s].StageI(0) })
	} else {
		// merge is stage II over a range of global provenances: each one's
		// statistic folds over its holders in shard order and divides, the
		// quotient goes to every holder, and a provenance no graph scored
		// keeps its accuracy. Each engine owns its stage-II partial buffers
		// and keeps them across generations.
		merge := func(lo, hi int, scratch []float64) float64 {
			maxDelta := 0.0
			buf := make([]csr.Loc, 0, len(runs))
			for g := lo; g < hi; g++ {
				hold := provs.Holders(g, buf)
				parts, cnt := scratch, int64(0)
				for _, l := range hold {
					e := runs[l.Shard].e
					parts = append(parts, e.partSums[l.Local])
					cnt += int64(e.partCnts[l.Local])
				}
				if cnt == 0 {
					continue
				}
				a := csr.Pairwise(parts, csr.AddFloat64) / float64(cnt)
				if d := math.Abs(a - runs[hold[0].Shard].e.provAcc[hold[0].Local]); d > maxDelta {
					maxDelta = d
				}
				install(runs, hold, a)
			}
			return maxDelta
		}
		moves = csr.Rounds(cfg.Rounds, runs[0].Epsilon(), func(round int) float64 {
			csr.ParallelEach(len(runs), lockstep.Across, func(s int) {
				sums, cnts := runs[s].e.partials()
				runs[s].StageI(round)
				runs[s].ProvPartials(round, sums, cnts)
			})
			return lockstep.Merge(nG, merge)
		})
		rounds = len(moves)
	}

	out := finish(runs, provs, rounds, lockstep.Across, cfg.Workers)
	out.Moves = moves
	if prev != nil {
		// A seeded run is a link of a chain: its engines go with the
		// posterior, for the next generation to take.
		es := make([]*engine, len(runs))
		for s, r := range runs {
			es[s] = r.e
		}
		out.seed.engines.Give(es)
	}
	return out, nil
}

// isPrefix reports whether keys begins with the elements of prefix. Along
// one append chain the two share a backing array (the graph's provenance
// column, or the coordinator's table, extended in place) and the answer is
// a pointer comparison; otherwise the elements are compared, which is still
// cheap where the strings are shared (equal data pointers end a string
// comparison early) and exact in every case.
func isPrefix(prefix, keys []string) bool {
	if len(prefix) > len(keys) {
		return false
	}
	return len(prefix) == 0 || &prefix[0] == &keys[0] || slices.Equal(prefix, keys[:len(prefix)])
}

// install writes a provenance's accuracy into every graph holding it.
func install(runs []*Run, hold []csr.Loc, a float64) {
	for _, l := range hold {
		runs[l.Shard].SetProvAccuracy(l.Local, a)
	}
}
