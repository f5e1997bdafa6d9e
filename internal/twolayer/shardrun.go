package twolayer

// The EM round driver and the step engine it sequences.
//
// The two-layer EM — layer-1 statement inference, layer-2 truth inference,
// then the per-source and per-extractor M-step — is one loop whether the
// extraction corpus sits in one graph or in K shards, and FuseLockstep is
// that loop: the only place in this package where rounds are counted, a
// previous State seeds a warm start, the M-step formulas are applied and
// the convergence test runs. It drives one Run per graph: every Run infers
// its statements and items under the current global parameters, reports its
// M-step evidence (SourcePartials, ExtractorPartials), and the driver folds
// each entity's evidence across the graphs holding it, applies
// SourceAccuracyUpdate / RecallUpdate / FalsePosUpdate, and broadcasts the
// merged parameters back (SetSourceAccuracy, SetExtractorRates). Statements
// and candidate triples route with their data item, so both E-steps are
// graph-local except the layer-1 ghost-miss correction (SetGhostMiss).
//
// Fuse, FuseCompiled and FuseCompiledWarm are the one-graph call of the
// driver: local and global IDs coincide (csr.IdentityTable over the graph's
// own key slices), a one-element fold is the identity and there are no
// ghosts. internal/shard's TwoLayer coordinator is the K-graph call, handing
// in the cross-shard tables and ghost-extractor sets it maintains across
// Appends.

import (
	"fmt"
	"runtime"
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

// SetGhostMiss installs the per-source cross-shard miss correction: for
// each local source, the summed mathx.MissLogRatio of the extractors that
// processed it only in other shards, added once to every local statement's
// layer-1 log-odds. nil (the default) disables the correction — the
// one-graph case, where adding nothing keeps bits identical. The slice is
// retained, not copied; the driver rewrites it each round.
func (r *Run) SetGhostMiss(gm []float64) { r.e.ghostMiss = gm }

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

// SourceStatedMass writes, per local source, the sum of its local
// statements' stated probabilities (ascending statement-ID order) and the
// statement count, in parallel over sources. This is the raw material of
// the driver's ghost extractor partials: an extractor that processed a source only in other
// shards covers all of the source's local statements without hitting any,
// so it owes [sum, cnt-sum, 0, 0] to its merged M-step totals — mass the
// local ExtractorPartials cannot see.
func (r *Run) SourceStatedMass(sums []float64, cnts []int32) {
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
	// (SetGhostMiss) and all-miss M-step mass. nil when there is one shard.
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
// vectors at the time of the call are the ones used.
//
// The step engines outlive their generation, as the claim engine's do
// (fusion.FuseLockstep). The State a seeded call returns carries the engines
// that produced it (an unseeded call's does not: cold States are what sweeps
// keep by the dozen, and each would pin an engine), and a call seeded from it
// takes them — exclusively, under the State's mutex: the first successor
// gets them, and a second successor of the same State (a fork, a concurrent
// call), a decoded State or a different shard count builds fresh ones. A
// taken engine is rebound to its new graph by the routine that sizes a fresh
// one (engine.rebind), which also decides what its contents are still worth:
// when the engine's last run was on exactly the generation its new graph
// extends and under the same model configuration, this run's first E-step
// revises the E-step that run ended with — it re-scores the statements of
// sources whose table entries moved bitwise, those whose extractor list the
// batch grew and the new ones, then the items owning them — and otherwise
// (and in every later E-step) scores everything. The two passes are one loop
// over two index sets and agree bit for bit wherever the first is taken
// (engine.dirtyScope states why), so no output depends on which ran.
//
// cfg.Workers bounds the whole call. One graph gets all of them for its
// loops; K graphs step side by side, min(K, Workers) at a time, and split
// what is left — a stage of the round (both E-steps of every graph; the
// graph-local M-step sums of every graph) is one fork-join, not several per
// graph over a Kth of the data. No result depends on either split.
//
// With one graph every fold is over a single holder — the identity — so the
// result does not depend on whether tables were handed in; K > 1 re-groups
// the cross-shard evidence sums (csr.Pairwise over each entity's holders in
// shard order) and agrees with K = 1 within RefTol (see internal/shard).
func FuseLockstep(graphs []*extract.Compiled, ids *Shards, cfg Config, warm *State) (*fusion.Posterior, *State, error) {
	if len(graphs) == 0 {
		return nil, nil, fmt.Errorf("twolayer: FuseLockstep needs at least one graph")
	}
	for s, g := range graphs {
		if g == nil {
			return nil, nil, fmt.Errorf("twolayer: shard %d has no graph (Fuse before first Append)", s)
		}
	}
	// Several graphs share the workers graph first: `across` of them step side
	// by side, each with workers/across for its own loops. At K shards a stage
	// is then one fork-join instead of several per shard over a Kth of the
	// data each — joins that cost a wake-up apiece, buy little at that size
	// and are where a busy host stalls a step. One graph keeps the workers
	// exactly as handed in.
	within, across := cfg, 1
	if len(graphs) > 1 {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		across = min(len(graphs), workers)
		within.Workers = max(1, workers/across)
	}
	recycled := warm.takeEngines(len(graphs))
	runs := make([]*Run, len(graphs))
	for s, g := range graphs {
		var e *engine
		if recycled != nil {
			e = recycled[s]
		}
		r, err := newRun(g, within, e)
		if err != nil {
			return nil, nil, err
		}
		runs[s] = r
	}
	// eachRun is one stage of the round over every graph. A Run touches only
	// its own engine and the per-graph buffers the driver hands it, and what
	// an engine computes never depends on its worker count, so neither split
	// can move a bit.
	eachRun := func(f func(s int, r *Run)) {
		csr.ParallelRange(len(runs), across, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				f(s, runs[s])
			}
		})
	}
	if ids == nil {
		if len(graphs) > 1 {
			return nil, nil, fmt.Errorf("twolayer: %d graphs need cross-shard ID tables", len(graphs))
		}
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
	if warm != nil {
		copy(srcAcc, warm.SrcAcc) // copy clamps to the shorter slice
		copy(recall, warm.Recall)
		copy(falsePos, warm.FalsePos)
	}
	// Starting parameters reach the step engines once; from then on each
	// merged update is installed on its holders as it is computed.
	for s, r := range runs {
		for local := 0; local < r.NumSources(); local++ {
			r.SetSourceAccuracy(int32(local), srcAcc[srcs.Global(s, local)])
		}
		for local := 0; local < r.NumExtractors(); local++ {
			g := exts.Global(s, local)
			r.SetExtractorRates(int32(local), recall[g], falsePos[g])
		}
	}

	// Each engine owns its graph's M-step evidence buffers and keeps them
	// across generations.
	numP := make([][]float64, len(runs))
	denP := make([][]float64, len(runs))
	extP := make([][][4]float64, len(runs))
	for s, r := range runs {
		numP[s], denP[s], extP[s] = r.e.num, r.e.den, r.e.ext
	}
	// Ghost state, all nil without ghosts: missLR is the round's miss
	// log-ratio per global extractor, gm[s] shard s's ghost-miss table
	// (installed once, rewritten from missLR before each statement
	// inference), statedSum/statedCnt the per-source stated mass and ghostP
	// each extractor's all-miss M-step mass built from it.
	var missLR []float64
	var gm, statedSum [][]float64
	var statedCnt [][]int32
	var ghostP [][4]float64
	if ghosts != nil {
		missLR = make([]float64, nX)
		gm = make([][]float64, len(runs))
		statedSum = make([][]float64, len(runs))
		statedCnt = make([][]int32, len(runs))
		for s, r := range runs {
			gm[s] = make([]float64, r.NumSources())
			r.SetGhostMiss(gm[s])
			statedSum[s] = make([]float64, r.NumSources())
			statedCnt[s] = make([]int32, r.NumSources())
		}
		ghostP = make([][4]float64, nX)
	}
	estep := func() {
		// One miss log-ratio per global extractor per E-step (the ghost
		// table is the driver's, not an engine kernel pass).
		for gx := range missLR {
			missLR[gx] = mathx.MissLogRatio(recall[gx], falsePos[gx])
		}
		for s := range gm {
			for ls, ghost := range ghosts[s] {
				sum := 0.0
				for _, gx := range ghost {
					// Shards.Ghosts lists each set in ascending global-ID order.
					sum += missLR[gx]
				}
				gm[s][ls] = sum
			}
		}
		eachRun(func(_ int, r *Run) {
			r.InferStatements()
			r.InferTruth()
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
		for s := range runs {
			for ls, ghost := range ghosts[s] {
				if len(ghost) == 0 {
					continue
				}
				sum := statedSum[s][ls]
				miss := float64(statedCnt[s][ls]) - sum
				for _, gx := range ghost {
					ghostP[gx][0] += sum
					ghostP[gx][1] += miss
				}
			}
		}
	}
	parts := make([]float64, 0, len(runs))
	parts4 := make([][4]float64, 0, len(runs)+1)
	var one [1]csr.Loc

	rounds := 0
	var moves []float64
	for rounds < cfg.Rounds {
		estep()
		rounds++

		// M-step, the graph-local half: every run sums its sources' and its
		// extractors' evidence — and, with ghosts, its sources' stated mass —
		// over the E-step just run. None of it reads a parameter, so it is one
		// stage ahead of both updates.
		eachRun(func(s int, r *Run) {
			r.SourcePartials(numP[s], denP[s])
			r.ExtractorPartials(extP[s])
			if ghostP != nil {
				r.SourceStatedMass(statedSum[s], statedCnt[s])
			}
		})

		// M-step, sources: fold each source's (num, den) evidence over its
		// holders; a source without evidence keeps its accuracy.
		maxDelta := 0.0
		for gs := range srcAcc {
			hold := srcs.Holders(gs, &one)
			den := csr.FoldFloat64(hold, denP, parts)
			if den < MinEvidence {
				continue
			}
			v := SourceAccuracyUpdate(csr.FoldFloat64(hold, numP, parts), den, cfg.InitSourceAccuracy)
			if d := v - srcAcc[gs]; d > maxDelta {
				maxDelta = d
			} else if -d > maxDelta {
				maxDelta = -d
			}
			srcAcc[gs] = v
			for _, l := range hold {
				runs[l.Shard].SetSourceAccuracy(l.Local, v)
			}
		}

		// M-step, extractors: fold each extractor's block-reduced evidence
		// over its holders, plus its ghost mass.
		if ghostP != nil {
			ghostPartials()
		}
		for gx := range recall {
			hold := exts.Holders(gx, &one)
			parts4 = parts4[:0]
			for _, l := range hold {
				parts4 = append(parts4, extP[l.Shard][l.Local])
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

		moves = append(moves, maxDelta)
		if maxDelta < ConvergeTol {
			break
		}
	}
	// Final E-steps over the converged parameters.
	estep()

	// The State owns srcAcc; the posterior, immutable beside it, gets a copy.
	out := posterior(runs, srcs.Keys(), slices.Clone(srcAcc), rounds, cfg.Workers)
	out.Moves = moves
	st := &State{SrcAcc: srcAcc, Recall: recall, FalsePos: falsePos}
	if warm != nil {
		// A seeded run is a link of a chain: its engines go with the State,
		// each marked with the graph whose final E-step it holds, for the
		// next generation to take. An unseeded run is as likely one of a
		// sweep's dozens, and every State kept from those would pin an engine
		// nothing will ever take; a chain's first warm step builds its own.
		st.engines = make([]*engine, len(runs))
		for s, r := range runs {
			r.e.ranOn = graphs[s].Token()
			st.engines[s] = r.e
		}
	}
	return out, st, nil
}

// takeEngines hands the State's step engines to the caller if it still holds
// them and they number n, and nil otherwise; whoever gets them owns them. A
// nil State has none.
func (st *State) takeEngines(n int) []*engine {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.engines) != n {
		return nil
	}
	es := st.engines
	st.engines = nil
	return es
}
