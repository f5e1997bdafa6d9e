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
// warm start, VOTE takes its single pass, the convergence test runs and
// OnRound fires. It drives one Run per graph: every Run scores its items
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

// Run is the step engine over one compiled graph: the newEngine state with
// the EM stages exposed one at a time, for FuseLockstep (and for callers
// that time or trace the stages) to sequence. A Run never counts rounds and
// never invokes Config.OnRound. Not safe for concurrent use; one Run per
// goroutine.
type Run struct {
	e         *engine
	lastStamp int32
}

// NewRun builds the step engine for one fusion configuration.
func (c *Compiled) NewRun(cfg Config) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 1e-4
	}
	return &Run{e: newEngine(c.g, cfg), lastStamp: 1}, nil
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
// graph's result: fused triples in compiled order, Unpredicted counted, the
// local provenance-accuracy map, and Rounds as given.
func (r *Run) Finish(rounds int) *Result {
	res := &Result{Rounds: rounds, Triples: make([]FusedTriple, len(r.e.g.triples))}
	res.Unpredicted = r.e.stageIII(r.lastStamp, res.Triples)
	res.ProvAccuracy = make(map[string]float64, len(r.e.g.provKeys))
	for p, key := range r.e.g.provKeys {
		res.ProvAccuracy[key] = r.e.provAcc[p]
	}
	return res
}

// FuseLockstep runs one fusion configuration over 1..K compiled graphs in
// lockstep EM rounds and merges the results: fused triples in graph-major
// compiled order, the global provenance-accuracy map, and the round count.
// graphs[i] must hold exactly the claims of the data items routed to it;
// provs maps each graph's local provenance IDs to global ones and is nil
// for a single graph (identity). Provenances whose key appears in
// prev.ProvAccuracy start at that accuracy and count as evaluated; gold
// initialization (§4.3.3), when configured, overrides both the default and
// the seed for labeled provenances. Config.OnRound is honoured for a single
// graph only — a shard's round is a partial view.
//
// The seed is dense when it can be. Every result the driver returns also
// records, unexported, its accuracies in global-ID order beside the key
// column those IDs index; when prev's key column is a prefix of this call's
// — prev came from an earlier generation of the same graph chain or the same
// coordinator table, whose IDs only grow at the end — the accuracies are
// installed by index and no string is hashed. The prefix test is exact: one
// pointer comparison when the two columns share a backing array, an
// element-wise comparison otherwise. Any other prev — decoded from a
// snapshot, built by hand, from a fork, from another shard count or a
// rebuilt table — seeds through the ProvAccuracy map, which every result
// still carries in full; the two paths install the same values, so which one
// ran never shows in a result.
//
// With one graph every fold is over a single holder — the identity — so the
// result does not depend on whether a table was handed in; K > 1 re-groups
// each cross-shard provenance sum (csr.Pairwise over the holders in shard
// order) and agrees with K = 1 within the documented tolerance (see
// internal/shard).
func FuseLockstep(graphs []*Compiled, provs *csr.IDTable, cfg Config, prev *Result) (*Result, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("fusion: FuseLockstep needs at least one graph")
	}
	if len(graphs) > 1 && cfg.OnRound != nil {
		return nil, fmt.Errorf("fusion: Config.OnRound is not supported in sharded fusion")
	}
	runs := make([]*Run, len(graphs))
	for s, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("fusion: shard %d has no graph (Fuse before first Append)", s)
		}
		r, err := g.NewRun(cfg)
		if err != nil {
			return nil, err
		}
		runs[s] = r
	}

	if provs == nil {
		if len(graphs) > 1 {
			return nil, fmt.Errorf("fusion: %d graphs need a cross-shard provenance table", len(graphs))
		}
		provs = csr.IdentityTable(graphs[0].g.provKeys)
	}
	// The step engines' own accuracy slots are the parameter store: every
	// holder of a provenance carries the same value, written only through
	// install, so the driver keeps no global copy.
	nG := provs.N()
	keys := provs.Keys()
	var one [1]csr.Loc
	if prev != nil && len(prev.seedKeys) > 0 && isPrefix(prev.seedKeys, keys) {
		// prev came from an earlier generation of this table: global IDs
		// only grow at the end, so its accuracies seed by index.
		for g, a := range prev.seedAcc {
			install(runs, provs.Holders(g, &one), a)
		}
	} else if prev != nil && len(prev.ProvAccuracy) > 0 {
		for g, key := range keys {
			if a, ok := prev.ProvAccuracy[key]; ok {
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
	if cfg.Method == Vote {
		for _, r := range runs {
			r.StageI(0)
		}
		rounds = 1
		runs[0].e.reportRound(0)
	} else {
		sums := make([][]float64, len(runs))
		cnts := make([][]int32, len(runs))
		for s, r := range runs {
			sums[s] = make([]float64, r.NumProvenances())
			cnts[s] = make([]int32, r.NumProvenances())
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
			runs[0].e.reportRound(round)
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
			if maxDelta < runs[0].Epsilon() {
				break
			}
		}
	}

	nTriples := 0
	for _, r := range runs {
		nTriples += len(r.e.g.triples)
	}
	out := &Result{Rounds: rounds, Triples: make([]FusedTriple, nTriples)}
	at := 0
	for _, r := range runs {
		n := len(r.e.g.triples)
		out.Unpredicted += r.e.stageIII(r.lastStamp, out.Triples[at:at+n])
		at += n
	}
	out.seedKeys = keys
	out.seedAcc = make([]float64, nG)
	out.ProvAccuracy = make(map[string]float64, nG)
	for g, key := range keys {
		a := current(runs, provs.Holders(g, &one))
		out.seedAcc[g] = a
		out.ProvAccuracy[key] = a
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
