package twolayer

// The EM round driver and the step engine it sequences.
//
// FuseLockstep is the two-layer EM — layer-1 statement inference, layer-2
// truth inference, then the per-source and per-extractor M-step — on the
// lockstep skeleton (internal/csr, lockstep.go): the only place in this
// package where rounds are counted, a previous State seeds a warm start and
// the M-step formulas are applied. Every Run infers its statements and items
// under the current global parameters and reports its M-step evidence
// (SourcePartials, ExtractorPartials); the driver folds each entity's
// evidence across the graphs holding it, applies SourceAccuracyUpdate /
// RecallUpdate / FalsePosUpdate, and broadcasts the merged parameters back
// (SetSourceAccuracy, SetExtractorRates). Statements and candidate triples
// route with their data item, so both E-steps are graph-local except the
// layer-1 ghost-miss correction (setGhostMiss). Fuse, FuseCompiled and
// FuseCompiledWarm are its one-graph call (identity tables, no ghosts);
// internal/shard's TwoLayer coordinator is the K-graph call, handing in the
// cross-shard tables and ghost-extractor sets it maintains across Appends.

import (
	"fmt"
	"math"
	"slices"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/mathx"
)

// Run is the step engine over one compiled extraction graph: the engine
// state with the EM stages exposed one at a time, for FuseLockstep (and for
// callers that time or trace the stages) to sequence. A Run never counts
// rounds and never updates a parameter on its own. Not safe for concurrent
// use; one Run per goroutine.
type Run struct {
	e *engine
}

// NewRun builds the step engine for one two-layer configuration over a
// compiled extraction graph (whose source level must match cfg.SiteLevel).
func NewRun(g *extract.Compiled, cfg Config) (*Run, error) {
	return newRun(g, cfg, nil)
}

// newRun is NewRun over a recycled engine when the driver has one to hand on
// (nil builds a fresh one): either way the engine is bound to g by the one
// sizing routine, engine.rebind.
func newRun(g *extract.Compiled, cfg Config, e *engine) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.SiteLevel() != cfg.SiteLevel {
		return nil, fmt.Errorf("twolayer: graph compiled with SiteLevel=%v but Config.SiteLevel=%v",
			g.SiteLevel(), cfg.SiteLevel)
	}
	if e == nil {
		e = &engine{}
	}
	e.rebind(g, cfg)
	return &Run{e: e}, nil
}

// NumSources and NumExtractors report the lengths the partial and broadcast
// arrays are indexed by.
func (r *Run) NumSources() int    { return r.e.g.NumSources() }
func (r *Run) NumExtractors() int { return r.e.g.NumExtractors() }

// setGhostMiss installs the per-source cross-shard miss correction: for
// each local source, the summed mathx.MissLogRatio of the extractors that
// processed it only in other shards, added once to every local statement's
// layer-1 log-odds. nil (the default) disables the correction — the
// one-graph case, where adding nothing keeps bits identical. The slice is
// retained, not copied; the driver rewrites it each round.
func (r *Run) setGhostMiss(gm []float64) { r.e.ghostMiss = gm }

// SetSourceAccuracy / SetExtractorRates broadcast merged parameters into
// the engine — warm-start seeds before round 0, merged M-step updates
// after each round.
func (r *Run) SetSourceAccuracy(s int32, acc float64) { r.e.srcAcc[s] = acc }
func (r *Run) SetExtractorRates(x int32, recall, falsePos float64) {
	r.e.recall[x] = recall
	r.e.falsePos[x] = falsePos
}

// InferStatements runs the layer-1 E-step (statement probabilities from
// extractor agreement, plus the ghost-miss correction if set).
func (r *Run) InferStatements() { r.e.inferStatements() }

// InferTruth runs the layer-2 E-step (weighted Bayesian truth inference).
func (r *Run) InferTruth() { r.e.inferTruth() }

// SourcePartials writes each local source's M-step evidence — expected
// true-claim mass and expected claim mass, summed over the source's local
// statement span in ascending ID order — into num and den (each of length
// NumSources), in parallel over sources (each index owns its outputs, so
// the worker count cannot move a bit). Merged across shards,
// SourceAccuracyUpdate over the totals (skipping dens below MinEvidence) is
// the M-step source update.
func (r *Run) SourcePartials(num, den []float64) {
	e := r.e
	csr.ParallelRange(e.g.NumSources(), e.workers, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			num[s], den[s] = e.sourceStat(int32(s))
		}
	})
}

// sourceStatedMass writes, per local source, the sum of its local
// statements' stated probabilities (ascending statement-ID order) and the
// statement count, in parallel over sources. This is the raw material of
// the driver's ghost extractor partials: an extractor that processed a source only in other
// shards covers all of the source's local statements without hitting any,
// so it owes [sum, cnt-sum, 0, 0] to its merged M-step totals — mass the
// local ExtractorPartials cannot see.
func (r *Run) sourceStatedMass(sums []float64, cnts []int32) {
	e := r.e
	csr.ParallelRange(e.g.NumSources(), e.workers, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			span := e.g.SourceStatements(int32(s))
			sum := 0.0
			for _, si := range span {
				sum += e.stated[si]
			}
			sums[s] = sum
			cnts[s] = int32(len(span))
		}
	})
}

// ExtractorPartials writes each local extractor's M-step evidence — the
// [stated, unstated, hitStated, hitUnstated] totals of the fixed-block
// pairwise reduction — into dst (length NumExtractors). Merged across
// shards lane by lane, RecallUpdate/FalsePosUpdate over the totals are
// the M-step rate updates.
func (r *Run) ExtractorPartials(dst [][4]float64) {
	e := r.e
	e.extractorTotals()
	copy(dst, e.extTotals)
}

// Result assembles the graph's fusion.Result — triples in interned order
// with the graph's support counts — with Rounds as given. The Run stays the
// caller's: the result's columns are copies of the engine's.
func (r *Run) Result(rounds int) *fusion.Result {
	g := r.e.g
	return posterior([]*Run{r}, g.SourceKeys(), slices.Clone(r.e.srcAcc), rounds, r.e.cfg.Workers).Result()
}

// posterior wraps the runs' layer-2 probabilities — tripleP is the native
// probability column as it stands — and the global source accuracies acc
// (indexed like keys) as a fusion.Posterior. The probabilities are copied
// graph-major into one column; acc is retained. An empty row set is a nil
// column, which materialises as the nil Result.Triples this engine has
// always returned for it.
func posterior(runs []*Run, keys []string, acc []float64, rounds, workers int) *fusion.Posterior {
	graphs := make([]fusion.RowGraph, len(runs))
	nTriples := 0
	for s, r := range runs {
		graphs[s] = r.e.g
		nTriples += r.e.g.NumTriples()
	}
	var prob []float64
	if nTriples > 0 {
		prob = make([]float64, 0, nTriples)
		for _, r := range runs {
			prob = append(prob, r.e.tripleP...)
		}
	}
	return fusion.NewPosterior(graphs, prob, keys, acc, rounds, workers)
}

// State snapshots the engine's current parameters (after the driver's last
// broadcast these are the merged global values restricted to local IDs).
func (r *Run) State() *State {
	e := r.e
	return &State{
		SrcAcc:   append([]float64(nil), e.srcAcc...),
		Recall:   append([]float64(nil), e.recall...),
		FalsePos: append([]float64(nil), e.falsePos...),
	}
}

// Shards is what a K-graph caller hands FuseLockstep: the cross-shard
// identity of the two interned ID spaces the M-step merges over, and the
// one structure of the model that genuinely crosses shards — a source's
// extractor set.
type Shards struct {
	Sources    *csr.IDTable
	Extractors *csr.IDTable
	// Ghosts[s][ls] lists, ascending, the global IDs of the extractors that
	// processed shard s's local source ls only in OTHER shards. Each is a
	// structural miss on every local statement of the source (its hits
	// route with their own items): a per-round layer-1 constant
	// (setGhostMiss) and all-miss M-step mass. nil when there is one shard.
	Ghosts [][][]int32
}

// FuseLockstep runs the two-layer model over 1..K compiled extraction
// graphs in lockstep EM rounds and returns the merged posterior in its
// native form — one probability per triple in graph-major interned order
// (the engines' tripleP), one accuracy per global source ID
// (fusion.Posterior; Result materialises the rows and the source-accuracy
// map, which is what FuseCompiled and FuseCompiledWarm hand their callers) —
// and the run's global State for the next generation's warm start (indexed
// by ids' global IDs, which for one graph are the graph's own). graphs[i] must
// hold exactly the extractions of the data items routed to it; ids is nil
// for a single graph (identity tables, no ghosts). Sources and extractors
// covered by warm start at their previous posteriors; the values in warm's
// vectors at the time of the call are the ones used. The worker split, the
// one-graph identity and the engine hand-off are the lockstep skeleton's
// (internal/csr, lockstep.go); what follows is this model's part of them.
//
// A State a seeded call returns carries its engines; a call seeded from it
// takes them, and a decoded State builds fresh ones. A taken engine is
// rebound by engine.rebind, which also decides whether this run's first
// E-step may revise the one the engine ended with instead of scoring
// everything (see the package comment, Warm chains); the two passes agree
// bit for bit, so no output depends on which ran.
//
// A round's E-steps (each graph summing its ghost-miss table first) and its
// graph-local M-step sums are one fork-join over the graphs apiece, and the
// source merge one more; the extractor merge and the ghost partials stay on
// the calling goroutine, their sums in a fixed cross-shard order. At K = 4
// on two workers a warm one-round step forks 5 times (its Result once more,
// for the accuracy map).
func FuseLockstep(graphs []*extract.Compiled, ids *Shards, cfg Config, warm *State) (*fusion.Posterior, *State, error) {
	if err := csr.CheckGraphs(graphs, ids != nil); err != nil {
		return nil, nil, fmt.Errorf("twolayer: %w", err)
	}
	if ids == nil {
		ids = &Shards{
			Sources:    csr.IdentityTable(graphs[0].SourceKeys()),
			Extractors: csr.IdentityTable(graphs[0].ExtractorNames()),
		}
	}
	srcs, exts, ghosts := ids.Sources, ids.Extractors, ids.Ghosts

	nS, nX := srcs.N(), exts.N()
	srcAcc := make([]float64, nS)
	recall := make([]float64, nX)
	falsePos := make([]float64, nX)
	for i := range srcAcc {
		srcAcc[i] = cfg.InitSourceAccuracy
	}
	for i := range recall {
		recall[i] = cfg.InitRecall
		falsePos[i] = cfg.InitFalsePos
	}
	var recycled []*engine
	if warm != nil {
		copy(srcAcc, warm.SrcAcc) // copy clamps to the shorter slice
		copy(recall, warm.Recall)
		copy(falsePos, warm.FalsePos)
		recycled = warm.engines.Take(len(graphs))
	}
	// Each graph's engine is handed its starting parameters as it is bound,
	// every holder looking up its own; from then on each merged update is
	// installed on its holders as it is computed.
	lockstep, err := csr.Bind(len(graphs), cfg.Workers, recycled, func(s, within int, e *engine) (*Run, error) {
		gcfg := cfg
		gcfg.Workers = within
		r, err := newRun(graphs[s], gcfg, e)
		if err != nil {
			return nil, err
		}
		for local := 0; local < r.NumSources(); local++ {
			r.SetSourceAccuracy(int32(local), srcAcc[srcs.Global(s, local)])
		}
		for local := 0; local < r.NumExtractors(); local++ {
			g := exts.Global(s, local)
			r.SetExtractorRates(int32(local), recall[g], falsePos[g])
		}
		return r, nil
	}, func(r *Run) int { return r.e.workers })
	if err != nil {
		return nil, nil, err
	}
	runs := lockstep.Runs

	// Each engine owns its graph's M-step evidence buffers and keeps them
	// across generations.
	numP := make([][]float64, len(runs))
	denP := make([][]float64, len(runs))
	for s, r := range runs {
		numP[s], denP[s] = r.e.num, r.e.den
	}
	// Ghost state, all nil without ghosts: missLR is the round's miss
	// log-ratio per global extractor and ghostP each extractor's all-miss
	// M-step mass. Per graph, the engine keeps its ghost tables across
	// generations like its M-step buffers: the ghost-miss table (installed
	// once, rewritten from missLR before each statement inference) and the
	// per-source stated mass ghostP is built from.
	var missLR []float64
	var ghostP [][4]float64
	if ghosts != nil {
		missLR = make([]float64, nX)
		for _, r := range runs {
			e, n := r.e, r.NumSources()
			e.ghostTab = regrow(e.ghostTab, n)
			e.statedSum = regrow(e.statedSum, n)
			e.statedCnt = regrow(e.statedCnt, n)
			r.setGhostMiss(e.ghostTab)
		}
		ghostP = make([][4]float64, nX)
	}
	estep := func() {
		// One miss log-ratio per global extractor per E-step (the ghost
		// table is the driver's, not an engine kernel pass); each graph then
		// sums its own ghost-miss table beside its E-step.
		for gx := range missLR {
			missLR[gx] = mathx.MissLogRatio(recall[gx], falsePos[gx])
		}
		csr.ParallelEach(len(runs), lockstep.Across, func(s int) {
			if ghosts != nil {
				gm := runs[s].e.ghostTab
				for ls, ghost := range ghosts[s] {
					sum := 0.0
					for _, gx := range ghost {
						// Shards.Ghosts lists each set in ascending global-ID order.
						sum += missLR[gx]
					}
					gm[ls] = sum
				}
				clear(gm[len(ghosts[s]):]) // a source without a list has no ghosts
			}
			runs[s].InferStatements()
			runs[s].InferTruth()
		})
	}
	// ghostPartials rebuilds each ghost extractor's cross-shard M-step mass
	// from the stated mass: for every (shard, source) pair the extractor
	// processed only elsewhere, it covers all of the source's local statements
	// without hitting any. Accumulation order is fixed (ascending shard,
	// source, ghost ID), so the totals are deterministic.
	ghostPartials := func() {
		for gx := range ghostP {
			ghostP[gx] = [4]float64{}
		}
		for s, r := range runs {
			for ls, ghost := range ghosts[s] {
				if len(ghost) == 0 {
					continue
				}
				sum := r.e.statedSum[ls]
				miss := float64(r.e.statedCnt[ls]) - sum
				for _, gx := range ghost {
					ghostP[gx][0] += sum
					ghostP[gx][1] += miss
				}
			}
		}
	}
	// mergeSource is the M-step source update over a range of global
	// sources: a source's (num, den) evidence folds over its holders, and a
	// source without evidence keeps its accuracy.
	mergeSource := func(lo, hi int, parts []float64) float64 {
		maxDelta := 0.0
		buf := make([]csr.Loc, 0, len(runs))
		for gs := lo; gs < hi; gs++ {
			hold := srcs.Holders(gs, buf)
			den := csr.FoldFloat64(hold, denP, parts)
			if den < MinEvidence {
				continue
			}
			v := SourceAccuracyUpdate(csr.FoldFloat64(hold, numP, parts), den, cfg.InitSourceAccuracy)
			if d := math.Abs(v - srcAcc[gs]); d > maxDelta {
				maxDelta = d
			}
			srcAcc[gs] = v
			for _, l := range hold {
				runs[l.Shard].SetSourceAccuracy(l.Local, v)
			}
		}
		return maxDelta
	}
	parts4 := make([][4]float64, 0, len(runs)+1)
	extHold := make([]csr.Loc, 0, len(runs))

	moves := csr.Rounds(cfg.Rounds, ConvergeTol, func(int) float64 {
		estep()

		// M-step, the graph-local half: every run sums its sources' and its
		// extractors' evidence — and, with ghosts, its sources' stated mass —
		// over the E-step just run. None of it reads a parameter, so it is one
		// stage ahead of both updates.
		csr.ParallelEach(len(runs), lockstep.Across, func(s int) {
			runs[s].SourcePartials(numP[s], denP[s])
			runs[s].ExtractorPartials(runs[s].e.ext)
			if ghostP != nil {
				runs[s].sourceStatedMass(runs[s].e.statedSum, runs[s].e.statedCnt)
			}
		})

		maxDelta := lockstep.Merge(nS, mergeSource)

		// M-step, extractors: fold each extractor's block-reduced evidence
		// over its holders, plus its ghost mass.
		if ghostP != nil {
			ghostPartials()
		}
		for gx := range recall {
			hold := exts.Holders(gx, extHold)
			parts4 = parts4[:0]
			for _, l := range hold {
				parts4 = append(parts4, runs[l.Shard].e.ext[l.Local])
			}
			if ghostP != nil {
				parts4 = append(parts4, ghostP[gx])
			}
			tot := csr.Pairwise(parts4, addPartials)
			if tot[0] > MinEvidence {
				recall[gx] = RecallUpdate(tot[2], tot[0])
			}
			if tot[1] > MinEvidence {
				falsePos[gx] = FalsePosUpdate(tot[3], tot[1])
			}
			for _, l := range hold {
				runs[l.Shard].SetExtractorRates(l.Local, recall[gx], falsePos[gx])
			}
		}
		return maxDelta
	})
	// Final E-steps over the converged parameters.
	estep()

	// The State owns srcAcc; the posterior, immutable beside it, gets a copy.
	out := posterior(runs, srcs.Keys(), slices.Clone(srcAcc), len(moves), cfg.Workers)
	out.Moves = moves
	st := &State{SrcAcc: srcAcc, Recall: recall, FalsePos: falsePos}
	if warm != nil {
		// A seeded run is a link of a chain: its engines go with the State,
		// each marked with the graph whose final E-step it holds, for the
		// next generation to take.
		es := make([]*engine, len(runs))
		for s, r := range runs {
			r.e.ranOn = graphs[s].Token()
			es[s] = r.e
		}
		st.engines.Give(es)
	}
	return out, st, nil
}
