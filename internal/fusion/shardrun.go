package fusion

import (
	"fmt"
	"slices"

	"kfusion/internal/csr"
)

// The EM round driver and the step engine it sequences.
//
// Figure 8's iteration — score items, re-estimate provenances, dedupe — is
// one loop whether it runs over one graph or a thousand shards, and
// FuseLockstep is that loop: the only place in this package where rounds
// are counted, gold labels initialize accuracies, a previous result seeds a
// warm start, VOTE takes its single pass and the convergence test runs. It
// drives one Run per graph: every Run scores its items
// (StageI) under the current global accuracies, reports each provenance's
// stage-II statistic (ProvPartials), and the driver folds a provenance's
// partials across the graphs holding it, divides, and broadcasts the new
// accuracy back (SetProvAccuracy).
//
// Fuse, (*Compiled).Fuse and (*Compiled).FuseWarm are the one-graph call of
// the driver: local and global provenance IDs coincide
// (csr.IdentityTable over the graph's own key slice) and a one-element fold
// is the identity. internal/shard's coordinators are the K-graph call,
// handing in the cross-shard provenance table they maintain across Appends.
// Centralised versus sharded is which table the caller holds, not a second
// algorithm.

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
// NumProvenances), in parallel over the compiled provenance spans.
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
	return finish([]*Run{r}, csr.IdentityTable(r.e.g.provKeys), rounds).Result()
}

// finish is the tail of a run: stage III of every graph into one probability
// column, the current accuracies in global-ID order, and the posterior over
// them.
func finish(runs []*Run, provs *csr.IDTable, rounds int) *Posterior {
	graphs := make([]RowGraph, len(runs))
	nTriples := 0
	for s, r := range runs {
		graphs[s] = r.c
		nTriples += len(r.e.g.triples)
	}
	prob := make([]float64, nTriples)
	at := 0
	for _, r := range runs {
		n := len(r.e.g.triples)
		r.e.stageIII(r.lastStamp, prob[at:at+n])
		at += n
	}
	acc := make([]float64, provs.N())
	var one [1]csr.Loc
	for g := range acc {
		acc[g] = current(runs, provs.Holders(g, &one))
	}
	return NewPosterior(graphs, prob, provs.Keys(), acc, rounds, runs[0].e.cfg.Workers)
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
// overrides both the default and the seed for labeled provenances.
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
// The step engines outlive their generation the same way. The seed of the
// posterior a seeded call returns carries the engines that produced it (an
// unseeded call's does not: cold results are what sweeps keep by the dozen,
// and each would pin an engine), and a call densely seeded from it takes
// them — exclusively, like the interning index of an Append chain: the first
// successor gets them, and a second successor of the same seed (a fork, a
// concurrent call), a by-key seed, a different shard count or a cold seed
// builds fresh ones. A taken engine is rebound to its new graph by the
// routine that sizes a fresh one (engine.rebind): buffers are reused or
// regrown with headroom, every accuracy, default flag and claim stamp is
// reset, so a recycled engine cannot move a bit either.
//
// With one graph every fold is over a single holder — the identity — so the
// result does not depend on whether a table was handed in; K > 1 re-groups
// each cross-shard provenance sum (csr.Pairwise over the holders in shard
// order) and agrees with K = 1 within the documented tolerance (see
// internal/shard).
func FuseLockstep(graphs []*Compiled, provs *csr.IDTable, cfg Config, prev *Seed) (*Posterior, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("fusion: FuseLockstep needs at least one graph")
	}
	for s, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("fusion: shard %d has no graph (Fuse before first Append)", s)
		}
	}
	if provs == nil {
		if len(graphs) > 1 {
			return nil, fmt.Errorf("fusion: %d graphs need a cross-shard provenance table", len(graphs))
		}
		provs = csr.IdentityTable(graphs[0].g.provKeys)
	}
	nG := provs.N()
	keys := provs.Keys()
	// prev came from an earlier generation of this table: global IDs only
	// grow at the end, so its accuracies seed by index and its engines fit.
	dense := prev != nil && prev.byKey == nil && isPrefix(prev.keys, keys)
	var recycled []*engine
	if dense {
		recycled = prev.takeEngines(len(graphs))
	}
	runs := make([]*Run, len(graphs))
	for s, g := range graphs {
		var e *engine
		if recycled != nil {
			e = recycled[s]
		}
		r, err := g.newRun(cfg, e)
		if err != nil {
			return nil, err
		}
		runs[s] = r
	}

	// The step engines' own accuracy slots are the parameter store: every
	// holder of a provenance carries the same value, written only through
	// install, so the driver keeps no global copy.
	var one [1]csr.Loc
	if dense {
		for g, a := range prev.acc {
			install(runs, provs.Holders(g, &one), a)
		}
	} else if prev != nil {
		byKey := prev.accuracyMap()
		for g, key := range keys {
			if a, ok := byKey[key]; ok {
				install(runs, provs.Holders(g, &one), a)
			}
		}
	}
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
		for g := range labeledG {
			if labeledG[g] == 0 {
				continue // no labeled claims: keeps the default (or the seed)
			}
			install(runs, provs.Holders(g, &one), clampAcc(float64(trueG[g])/float64(labeledG[g])))
		}
	}

	rounds := 0
	var moves []float64
	if cfg.Method == Vote {
		for _, r := range runs {
			r.StageI(0)
		}
		rounds = 1
	} else {
		// Each engine owns its stage-II partial buffers and keeps them across
		// generations.
		sums := make([][]float64, len(runs))
		cnts := make([][]int32, len(runs))
		for s, r := range runs {
			sums[s], cnts[s] = r.e.partials()
		}
		// The merge runs in parallel over global provenances: each owns its
		// holders' slots, and the delta is a max — exact in any order — so
		// the worker count cannot move a bit.
		workers := runs[0].e.workers
		deltas := make([]float64, workers)
		for rounds < cfg.Rounds {
			round := rounds
			for _, r := range runs {
				r.StageI(round)
			}
			for s, r := range runs {
				r.ProvPartials(round, sums[s], cnts[s])
			}
			clear(deltas)
			csr.ParallelRange(nG, workers, func(w, lo, hi int) {
				parts := make([]float64, 0, len(runs))
				var one [1]csr.Loc
				maxDelta := 0.0
				for g := lo; g < hi; g++ {
					hold := provs.Holders(g, &one)
					var cnt int64
					for _, l := range hold {
						cnt += int64(cnts[l.Shard][l.Local])
					}
					if cnt == 0 {
						continue // never scored anywhere: keeps its accuracy
					}
					a := csr.FoldFloat64(hold, sums, parts) / float64(cnt)
					if d := a - current(runs, hold); d > maxDelta {
						maxDelta = d
					} else if -d > maxDelta {
						maxDelta = -d
					}
					install(runs, hold, a)
				}
				deltas[w] = maxDelta
			})
			maxDelta := 0.0
			for _, d := range deltas {
				maxDelta = max(maxDelta, d)
			}
			rounds++
			moves = append(moves, maxDelta)
			if maxDelta < runs[0].Epsilon() {
				break
			}
		}
	}

	out := finish(runs, provs, rounds)
	out.Moves = moves
	if prev != nil {
		// A seeded run is a link of a chain: its engines go with the
		// posterior, for the next generation to take. An unseeded run is as
		// likely one of a sweep's dozens, and every result kept from those
		// would pin an engine nothing will ever take; a chain's first warm
		// step builds its engines instead.
		out.seed.engines = make([]*engine, len(runs))
		for s, r := range runs {
			out.seed.engines[s] = r.e
		}
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

// install writes a provenance's accuracy into every graph holding it;
// current reads it back (all holders agree, so the first will do).
func install(runs []*Run, hold []csr.Loc, a float64) {
	for _, l := range hold {
		runs[l.Shard].SetProvAccuracy(l.Local, a)
	}
}

func current(runs []*Run, hold []csr.Loc) float64 {
	return runs[hold[0].Shard].e.provAcc[hold[0].Local]
}
