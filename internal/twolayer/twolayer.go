// Package twolayer implements the paper's §5.1 future direction:
// distinguishing mistakes made by extractors from erroneous information
// provided by Web sources. The flat (extractor, URL) provenance of the base
// system buries an important signal — "for triples with the same number of
// provenances, those extracted by at least 8 extractors have a much higher
// accuracy than those extracted by a single extractor" (Figure 18).
//
// The model has two layers with an EM loop across both:
//
//	Layer 1 (statement inference): for every (source, triple) pair, infer
//	the probability that the source actually STATES the triple, from which
//	extractors did and did not extract it there, using per-extractor recall
//	and false-positive rates. Many extractors agreeing on one page is strong
//	evidence the page says it; one noisy extractor repeating itself across a
//	thousand pages is not.
//
//	Layer 2 (truth inference): classical Bayesian fusion over SOURCES (not
//	extractor × source pairs), weighting each source's vote by the
//	probability it states the triple, with per-source accuracy re-estimated
//	from expected-stated claims.
//
// # Compiled engine
//
// Fuse rides the compiled extraction graph (extract.Compiled): sources,
// extractors, (source, triple) statement pairs, candidate triples and data
// items are interned into dense int32 IDs with CSR adjacency once, and every
// EM round iterates flat ID-indexed slices — the same compile-once
// architecture fusion.Fuse uses for the claim graph. FuseCompiled consumes an
// existing compilation, so the experiment layer shares one graph across
// configurations. The original map-keyed engine survives as FuseReference,
// pinned against the compiled engine by golden equivalence tests; both are
// deterministic and independent of Config.Workers.
//
// # Deterministic parallel reductions
//
// Every EM stage runs in parallel, and every one is bit-identical for any
// Config.Workers value (pinned by forced-worker property tests at Workers
// 1/2/3/7/8):
//
//   - The layer-1 and layer-2 E-steps and the per-source M-step pass
//     parallelize over statements, items and sources respectively; each
//     index owns its outputs, so chunk boundaries cannot influence results.
//   - The M-step extractor-rate pass — the last hot path that was sequential
//     — reduces over the graph's ext→statement CSR in fixed
//     csr.ReduceBlockSize blocks: each block is summed left-to-right by
//     whichever worker picks it up, and per-extractor block partials are
//     folded with csr.Pairwise, whose tree shape depends only on the block
//     count. The reduction tree is a pure function of the span lengths, so
//     the result never depends on scheduling.
//
// # Reference-tolerance policy
//
// Two engine optimizations legitimately change the low-order bits of float
// sums relative to the reference engine: the M-step extractor-rate pass
// re-groups the reference's single left-to-right walk into fixed blocks
// folded pairwise (if anything, more accurate), and the layer-1 E-step
// hoists each source's miss terms into a per-source base, so a statement's
// log-odds becomes base plus per-hit corrections instead of one interleaved
// walk over the source's whole extractor span. Compiled-vs-reference
// equivalence therefore relaxes from bit-equality to a documented <= 1e-9
// absolute tolerance (RefTol, CloseToReference) on the float outputs —
// triple probabilities and source accuracies, all in [0,1], where an
// absolute bound is at least as strict as a relative one; everything integer
// — triple order, support counts, round counts — remains exact.
// Compiled-vs-compiled equality across worker counts remains bitwise.
package twolayer

import (
	"fmt"
	"math"
	"runtime"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/mathx"
)

// RefTol is the documented compiled-vs-reference tolerance (see the
// package comment's reference-tolerance policy): the M-step's fixed-block
// pairwise reduction re-groups the reference engine's left-to-right float
// sums, perturbing low-order bits of the M-step-affected outputs. Every
// equivalence suite comparing FuseCompiled against FuseReference uses this
// one constant, so revisiting the policy (e.g. after a csr.ReduceBlockSize
// change) happens in exactly one place.
const RefTol = 1e-9

// CloseToReference reports whether two float outputs agree within RefTol,
// absolutely. Every compared output — triple probabilities, source
// accuracies — lives in [0,1], where an absolute bound is at least as
// strict as a relative one; 1e-9 is still ~1000x looser than the observed
// ~1e-12 drift, so the bar catches real divergence without flaking.
// Integer outputs (triple order, support counts, rounds) are outside the
// policy: they must match exactly.
func CloseToReference(a, b float64) bool {
	return math.Abs(a-b) <= RefTol
}

// Config parameterizes the two-layer model.
type Config struct {
	// Rounds is the outer EM round cap.
	Rounds int
	// SiteLevel keys sources at site level instead of URL level.
	SiteLevel bool
	// InitSourceAccuracy is the starting per-source accuracy.
	InitSourceAccuracy float64
	// InitRecall is the starting per-extractor recall (probability of
	// extracting a statement the source makes, given the extractor
	// processed the source).
	InitRecall float64
	// InitFalsePos is the starting per-extractor hallucination rate.
	InitFalsePos float64
	// PriorStated is the prior that a candidate (source, triple) pair is
	// actually stated by the source.
	PriorStated float64
	// NFalse is the layer-2 ACCU false-value count.
	NFalse int
	// Workers bounds the parallel EM stage loops (0 = GOMAXPROCS). Results
	// never depend on it.
	Workers int
	// FastMath runs the per-round transcendental tables and sigmoids on the
	// mathx.Fast polynomial kernels instead of math.Exp/math.Log. Outputs
	// stay within mathx.FastTol of the exact engine's (pinned by the
	// FastMath equivalence suite) and remain bit-identical across worker and
	// shard counts — the approximation is elementwise and deterministic.
	FastMath bool
}

// DefaultConfig returns the configuration used in the ablation experiments.
func DefaultConfig() Config {
	return Config{
		Rounds:             5,
		InitSourceAccuracy: 0.8,
		InitRecall:         0.5,
		InitFalsePos:       0.15,
		PriorStated:        0.5,
		NFalse:             100,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rounds < 1 {
		return fmt.Errorf("twolayer: Rounds must be >= 1, got %d", c.Rounds)
	}
	// A slice, not a map: with several fields invalid, the reported one
	// must not depend on map iteration order.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"InitSourceAccuracy", c.InitSourceAccuracy},
		{"InitRecall", c.InitRecall},
		{"InitFalsePos", c.InitFalsePos},
		{"PriorStated", c.PriorStated},
	} {
		if f.v <= 0 || f.v >= 1 {
			return fmt.Errorf("twolayer: %s must be in (0,1), got %v", f.name, f.v)
		}
	}
	if c.NFalse < 1 {
		return fmt.Errorf("twolayer: NFalse must be >= 1, got %d", c.NFalse)
	}
	return nil
}

// Fuse runs the two-layer model over raw extractions: it compiles the
// extraction graph at the configured source level and fuses over it. Callers
// running several configurations over one extraction set should Compile once
// and use FuseCompiled.
func Fuse(xs []extract.Extraction, cfg Config) (*fusion.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return FuseCompiled(extract.CompileWorkers(xs, cfg.SiteLevel, cfg.Workers), cfg)
}

// MustFuse is Fuse for statically-valid configurations.
func MustFuse(xs []extract.Extraction, cfg Config) *fusion.Result {
	r, err := Fuse(xs, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// FuseCompiled runs the two-layer model over an already-compiled extraction
// graph. The graph's source level must match cfg.SiteLevel — the grouping is
// baked in at extract.Compile time. All model state (statement probabilities,
// source accuracies, extractor rates) lives in the per-call engine, so one
// graph serves any number of concurrent FuseCompiled calls.
func FuseCompiled(g *extract.Compiled, cfg Config) (*fusion.Result, error) {
	res, _, err := FuseCompiledWarm(g, cfg, nil)
	return res, err
}

// State carries one two-layer run's converged model parameters forward to
// the next generation of an append-only extraction graph: per-source
// accuracies and per-extractor recall / false-positive rates, indexed by the
// graph's interned IDs. IDs are append-stable (extract.Compiled.Append never
// renumbers an existing source or extractor), so a State captured on
// generation k seeds generation k+1 directly — entities new to the appended
// batch simply start at the configured initial values. The slices are owned
// by the State (copies, not views into engine state).
type State struct {
	SrcAcc   []float64 // source ID -> accuracy
	Recall   []float64 // extractor ID -> recall
	FalsePos []float64 // extractor ID -> false-positive rate
}

// WarmTol is the documented warm-start-vs-cold-start tolerance, in the
// converged regime: when both the warm and the cold run stop because the
// per-round accuracy delta fell below the 1e-4 convergence threshold
// (rather than hitting the Rounds cap — the paper's R = 5 is a forced
// cut-off), they halt in threshold-sized neighborhoods of the same EM fixed
// point, and every triple probability and source accuracy (all in [0,1])
// agrees within this absolute bound. When the cap bites first, warm and
// cold are different truncations of the same iteration and can differ up to
// the remaining convergence distance. The warm-start equivalence tests pin
// the bound.
const WarmTol = 5e-3

// FuseCompiledWarm is FuseCompiled seeded from a previous generation's
// State — the warm start of the append pipeline. Sources and extractors
// covered by warm start at their previous posteriors instead of the
// configured initial values. On data where the EM threshold-converges,
// that typically cuts the round count and lands within WarmTol of cold
// start; under the paper's forced round cap R, run it as online EM instead
// — carry the State batch to batch with cfg.Rounds = 1 — which costs a
// fraction of a cold R-round run and matches its evaluation quality (WDev
// and AUC-PR bounds pinned by the bench-scale warm-quality test) without
// being pointwise-close to it. It returns the run's own State for the next
// generation. A nil warm is a cold start (exactly FuseCompiled).
func FuseCompiledWarm(g *extract.Compiled, cfg Config, warm *State) (*fusion.Result, *State, error) {
	post, st, err := FuseLockstep([]*extract.Compiled{g}, nil, cfg, warm)
	if err != nil {
		return nil, nil, err
	}
	return post.Result(), st, nil
}

// MustFuseCompiled is FuseCompiled for statically-valid configurations.
func MustFuseCompiled(g *extract.Compiled, cfg Config) *fusion.Result {
	r, err := FuseCompiled(g, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// engine is the per-call EM state over a compiled extraction graph. Every
// slice is indexed by an interned ID; the EM rounds allocate nothing.
//
// Closeness to FuseReference is an invariant pinned by the golden
// equivalence tests: per-source and per-triple sums walk statements in
// ascending ID order, and the per-round extractor likelihood ratios and
// source log-weights are batched mathx kernel passes over the exact
// expressions the reference evaluates inline. Two documented re-groupings
// separate the engines within RefTol while staying bit-identical across
// Workers (see the package comment): the M-step extractor-rate pass's
// fixed-block pairwise reduction, and the layer-1 hoist that assembles each
// statement's log-odds as a per-source miss base plus per-hit corrections
// instead of the reference's straight extractor-span walk.
type engine struct {
	g       *extract.Compiled
	cfg     Config
	workers int
	kern    *mathx.Kernels        // transcendental kernel set (Exact or Fast)
	sig     func(float64) float64 // scalar sigmoid matching kern

	stated  []float64 // statement ID -> P(source states triple)
	tripleP []float64 // triple ID -> P(triple true)
	srcAcc  []float64 // source ID -> accuracy

	// stWeight stages the layer-2 corroboration vote per statement:
	// clamp((stated-0.5)/0.45) * srcLogW[source], written by inferStatements
	// in the same pass that writes stated (the source index is already in
	// hand there). An uninformed statement stages exactly +0.0, which the
	// per-triple sums absorb bit-identically to the historical skip (no
	// term or partial sum in a span can be -0.0), so inferTruth's scoring
	// loop is a branch-free run over each triple's statement span.
	stWeight []float64

	recall    []float64 // extractor ID -> recall
	falsePos  []float64 // extractor ID -> hallucination rate
	lrHit     []float64 // per round: log(recall) - log(falsePos)
	lrMiss    []float64 // per round: log(1-recall) - log(1-falsePos)
	lrAdj     []float64 // per round: lrHit - lrMiss (hit correction over the miss base)
	oneMinusR []float64 // staging for the batched lrMiss kernel pass
	oneMinusF []float64
	srcBase   []float64 // per round: prior + ghost + summed lrMiss of the source's extractors
	srcLogW   []float64 // per round: log(NFalse * a / (1-a)), a clamped

	// Per-worker scratch: candidate score buffers for the layer-2 softmax.
	scores [][]float64

	// Single-hit sigmoid cache, per worker: most statements are hit by
	// exactly one extractor and distinct (source, extractor) pairs are an
	// order of magnitude fewer, so the layer-1 loop caches
	// sigmoid(srcBase + lrAdj) per pair per round in dense
	// [source*nExt + ext] value/round-stamp arrays. nil (cache disabled, the
	// same expression computed inline) when the pair space exceeds
	// pairCacheMaxCells. The cached value is a pure function of the round's
	// tables — independent of which statements a worker sees — so the cache
	// never changes a bit for any Workers value.
	pairP     [][]float64
	pairStamp [][]int32
	roundSeq  int32

	// ghostMiss is the round driver's cross-shard correction (nil and inert
	// for a single graph): per local source, the summed
	// miss-log-ratio of extractors that processed the source only in OTHER
	// shards. A statement's global layer-1 walk covers every extractor that
	// processed its source; a shard sees only the local ones, and every
	// remote extractor is a structural miss here (hits route with the
	// statement's item), so their terms fold into one per-source constant.
	ghostMiss []float64

	// M-step extractor-rate reduction state: one [stated, unstated,
	// hitStated, hitUnstated] partial per fixed block of the graph's
	// ext→statement spans, folded per extractor with csr.Pairwise.
	// blockWorkers is the reduction's worker bound: 1 when the whole
	// incidence is below the shared elementwise threshold (goroutine fan-out
	// would dominate the few float adds), e.workers otherwise — a pure
	// function of the graph, so results stay Workers-independent either way
	// (block sums are scheduling-independent by construction).
	blockSums    [][4]float64
	extTotals    [][4]float64 // extractor ID -> folded block partials
	blockWorkers int

	// baseWorkers bounds the per-source miss-base pass: 1 when the
	// source→extractor incidence is below the shared elementwise threshold,
	// e.workers otherwise — a pure function of the graph, like blockWorkers.
	baseWorkers int
}

// pairCacheMaxCells caps the single-hit sigmoid cache's per-worker pair
// space (source count × extractor count). Above it the cache would cost more
// zeroed memory than the sigmoids it saves; the layer-1 loop then computes
// the identical expression inline, so the gate — a pure function of the
// graph — cannot affect results.
const pairCacheMaxCells = 1 << 18

func newEngine(g *extract.Compiled, cfg Config) *engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nExt := g.NumExtractors()
	e := &engine{
		g:       g,
		cfg:     cfg,
		workers: workers,
		kern:    mathx.ForConfig(cfg.FastMath),
		sig:     mathx.Sigmoid,

		stated:   make([]float64, g.NumStatements()),
		stWeight: make([]float64, g.NumStatements()),
		tripleP:  make([]float64, g.NumTriples()),
		srcAcc:   make([]float64, g.NumSources()),

		recall:    make([]float64, nExt),
		falsePos:  make([]float64, nExt),
		lrHit:     make([]float64, nExt),
		lrMiss:    make([]float64, nExt),
		lrAdj:     make([]float64, nExt),
		oneMinusR: make([]float64, nExt),
		oneMinusF: make([]float64, nExt),
		srcBase:   make([]float64, g.NumSources()),
		srcLogW:   make([]float64, g.NumSources()),

		scores:    make([][]float64, workers),
		pairP:     make([][]float64, workers),
		pairStamp: make([][]int32, workers),

		blockSums:    make([][4]float64, len(g.ExtStatementBlocks())),
		extTotals:    make([][4]float64, nExt),
		blockWorkers: 1,
		baseWorkers:  1,
	}
	if cfg.FastMath {
		e.sig = mathx.FastSigmoid
	}
	incidence := 0
	for _, b := range g.ExtStatementBlocks() {
		incidence += int(b.Hi - b.Lo)
	}
	if incidence >= elementwiseParallelThreshold {
		e.blockWorkers = workers
	}
	srcExtIncidence := 0
	for s := 0; s < g.NumSources(); s++ {
		srcExtIncidence += len(g.SourceExtractors(int32(s)))
	}
	if srcExtIncidence >= elementwiseParallelThreshold {
		e.baseWorkers = workers
	}
	for i := range e.tripleP {
		e.tripleP[i] = 0.5
	}
	for i := range e.srcAcc {
		e.srcAcc[i] = cfg.InitSourceAccuracy
	}
	for i := 0; i < nExt; i++ {
		e.recall[i] = cfg.InitRecall
		e.falsePos[i] = cfg.InitFalsePos
	}
	cells := g.NumSources() * nExt
	for w := 0; w < workers; w++ {
		e.scores[w] = make([]float64, g.MaxItemTriples())
		if cells > 0 && cells <= pairCacheMaxCells {
			e.pairP[w] = make([]float64, cells)
			e.pairStamp[w] = make([]int32, cells)
		}
	}
	return e
}

// inferStatements is the layer-1 E-step: statement probabilities from
// extractor agreement, in parallel over statements. The per-round extractor
// likelihood-ratio tables come from batched kernel passes over staging
// buffers, and each statement's log-odds is assembled hoisted: a per-source
// base — prior, ghost correction and the summed miss ratio of every
// extractor that processed the source — plus one hit-minus-miss correction
// per extractor that actually extracted the statement. That shrinks the
// walk from the source's whole extractor span to the statement's hit list
// (a handful of terms); the re-grouping is covered by the package comment's
// reference-tolerance policy. Statements hit by exactly one extractor — the
// bulk of an extraction corpus — share the per-(source, extractor) sigmoid
// cache.
func (e *engine) inferStatements() {
	g := e.g
	e.roundSeq++
	seq := e.roundSeq
	// The layer-2 source log-weight table is staged here too: srcAcc is
	// final for the round before layer 1 starts, and having srcLogW ready
	// lets the statement loop below stage each statement's corroboration
	// vote (stWeight) the moment its probability is computed, while the
	// source index is still in hand — inferTruth then never re-streams the
	// statement table.
	nFalse := float64(e.cfg.NFalse)
	lw := e.workers
	if len(e.srcAcc) < elementwiseParallelThreshold {
		lw = 1
	}
	csr.ParallelRange(len(e.srcAcc), lw, func(_, lo, hi int) {
		e.kern.LogOddsSlice(e.srcLogW[lo:hi], e.srcAcc[lo:hi], nFalse, accClampLo, accClampHi)
	})
	e.kern.LogRatioSlice(e.lrHit, e.recall, e.falsePos)
	for x := range e.recall {
		e.oneMinusR[x] = 1 - e.recall[x]
		e.oneMinusF[x] = 1 - e.falsePos[x]
	}
	e.kern.LogRatioSlice(e.lrMiss, e.oneMinusR, e.oneMinusF)
	for x := range e.lrAdj {
		e.lrAdj[x] = e.lrHit[x] - e.lrMiss[x]
	}
	prior := math.Log(e.cfg.PriorStated) - math.Log(1-e.cfg.PriorStated)
	csr.ParallelRange(g.NumSources(), e.baseWorkers, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			b := prior
			if e.ghostMiss != nil {
				b += e.ghostMiss[s]
			}
			for _, x := range g.SourceExtractors(int32(s)) {
				b += e.lrMiss[x]
			}
			e.srcBase[s] = b
		}
	})
	nExt := int32(len(e.recall))
	csr.ParallelRange(g.NumStatements(), e.workers, func(w, lo, hi int) {
		pairP, pairStamp := e.pairP[w], e.pairStamp[w]
		for si := lo; si < hi; si++ {
			src := g.StatementSource(int32(si))
			hits := g.StatementExtractors(int32(si))
			var pv float64
			if len(hits) == 1 && pairStamp != nil {
				k := src*nExt + hits[0]
				if pairStamp[k] != seq {
					pairP[k] = e.sig(e.srcBase[src] + e.lrAdj[hits[0]])
					pairStamp[k] = seq
				}
				pv = pairP[k]
			} else {
				logOdds := e.srcBase[src]
				for _, x := range hits {
					logOdds += e.lrAdj[x]
				}
				pv = e.sig(logOdds)
			}
			e.stated[si] = pv
			// Corroboration gate, staged for layer 2: an uninformed
			// statement (stated ≈ 0.5) contributes nothing, a confident
			// one (stated >= 0.95) votes with full source weight. This is
			// the sublinear source counting that stops one extractor's
			// repeated mistake from out-voting genuinely corroborated
			// statements (Figure 7's drops, §5.1). A gated-out vote stages
			// +0.0, bit-identical to the historical skip (see the stWeight
			// field comment).
			wgt := (pv - 0.5) / 0.45
			if wgt <= 0 {
				e.stWeight[si] = 0
				continue
			}
			if wgt > 1 {
				wgt = 1
			}
			e.stWeight[si] = wgt * e.srcLogW[src]
		}
	})
}

// elementwiseParallelThreshold is the element count below which the
// per-round elementwise precomputes (source log-weights) stay sequential
// (the shared elementwise cutoff; tuned in internal/csr). The gate depends
// only on the input size, so results stay independent of Workers.
const elementwiseParallelThreshold = csr.ElementwiseThreshold

// inferTruth is the layer-2 E-step: weighted Bayesian truth inference, in
// parallel over data items (each item owns its candidates' tripleP entries).
// The round's source log-weights and corroboration votes were staged by
// inferStatements (srcLogW, stWeight), so each triple's score is a pure
// add loop over its statement span followed by one softmax kernel call per
// item.
func (e *engine) inferTruth() {
	g := e.g
	nFalse := float64(e.cfg.NFalse)
	csr.ParallelRange(g.NumItems(), e.workers, func(w, lo, hi int) {
		buf := e.scores[w]
		for it := lo; it < hi; it++ {
			tis := g.ItemTriples(int32(it))
			scores := buf[:len(tis)]
			for vi, ti := range tis {
				s := 0.0
				for _, si := range g.TripleStatements(ti) {
					//lint:ignore kflint/floatsum one triple's staged corroboration votes in statement-span order — the per-group partial the item's owner folds whole; identical order across runs.
					s += e.stWeight[si]
				}
				scores[vi] = s
			}
			unknown := nFalse - float64(len(tis))
			if unknown < 0 {
				unknown = 0
			}
			e.kern.SoftmaxInto(scores, scores, unknown)
			for vi, ti := range tis {
				e.tripleP[ti] = scores[vi]
			}
		}
	})
}

// sourceStat sums one source's expected-stated evidence over its statement
// span in ascending ID order: num is the expected true-claim mass, den the
// expected claim mass. The (num, den) pair is the unit the round driver
// folds across the graphs holding the source.
func (e *engine) sourceStat(s int32) (num, den float64) {
	g := e.g
	for _, si := range g.SourceStatements(s) {
		wgt := e.stated[si]
		//lint:ignore kflint/floatsum one source's partial over its compiled CSR statement span in ascending ID order — the per-group (num, den) unit the round driver folds across shards; addition order is identical across runs.
		num += wgt * e.tripleP[g.StatementTriple(si)]
		//lint:ignore kflint/floatsum same fixed statement-span order as num — the pair is folded across shards with csr.Pairwise.
		den += wgt
	}
	return num, den
}

// extractorTotals fills extTotals with each extractor's [stated, unstated,
// hitStated, hitUnstated] evidence: a parallel reduction over the
// ext→statement CSR. Workers sum whole fixed blocks (left-to-right within a
// block, ascending statement order), then each extractor's block partials
// fold with a pairwise tree shaped only by its block count — so every bit
// of the totals is independent of the worker count and of which worker
// summed which block.
func (e *engine) extractorTotals() {
	g := e.g
	blocks := g.ExtStatementBlocks()
	csr.ParallelRange(len(blocks), e.blockWorkers, func(_, blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			// The 0/1 float hit flags keep this loop — the hottest
			// fixed-block walk in the engine — branch-free without touching
			// a bit of the totals: f*sv is sv or +0, and adding +0 to a
			// non-negative partial is the identity.
			sts, hitsF := g.ExtBlockStatementsF(blocks[bi])
			var s, u, hs, hu float64
			for k, si := range sts {
				sv := e.stated[si]
				f := hitsF[k]
				s += sv
				u += 1 - sv
				hs += f * sv
				hu += f * (1 - sv)
			}
			e.blockSums[bi] = [4]float64{s, u, hs, hu}
		}
	})
	bi := 0
	for x := range e.extTotals {
		lo := bi
		for bi < len(blocks) && blocks[bi].Group == int32(x) {
			bi++
		}
		e.extTotals[x] = csr.Pairwise(e.blockSums[lo:bi], addPartials)
	}
}

// ConvergeTol is the round driver's convergence threshold on the per-round
// maximum (merged) source-accuracy change.
const ConvergeTol = 1e-4

// MinEvidence is the floor under which an M-step denominator counts as no
// evidence: the source (or extractor rate) keeps its current value.
const MinEvidence = 1e-9

// sourceAnchor is the M-step's pseudo-claim mass: small sources are
// anchored toward the prior so a source with one claim does not spiral down
// with its own claim's probability (the isolated-conflict drift).
const sourceAnchor = 2.0

// SourceAccuracyUpdate is the M-step source-accuracy formula over merged
// evidence — applied by the round driver, and exported (like RecallUpdate
// and FalsePosUpdate) for callers that sequence a Run's stages themselves.
func SourceAccuracyUpdate(num, den, initAccuracy float64) float64 {
	return (num + sourceAnchor*initAccuracy) / (den + sourceAnchor)
}

// RecallUpdate is the M-step recall formula (hit-stated mass over stated
// mass, Laplace-smoothed and clamped).
func RecallUpdate(hitStated, stated float64) float64 {
	return clampRate(hitStated / (stated + 1))
}

// FalsePosUpdate is the M-step false-positive formula (hit-unstated mass
// over unstated mass, Laplace-smoothed and clamped).
func FalsePosUpdate(hitUnstated, unstated float64) float64 {
	return clampRate(hitUnstated / (unstated + 1))
}

// addPartials combines two [stated, unstated, hitStated, hitUnstated]
// M-step partials — the fold operator for both the in-graph block reduction
// and the cross-shard extractor merge.
func addPartials(a, b [4]float64) [4]float64 {
	return [4]float64{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]}
}

// accClampLo/Hi bound every source accuracy before it enters the layer-2
// log-odds — both the engine's kernel LogOddsSlice pass and the reference
// engine's inline clampAcc use the same constants.
const accClampLo, accClampHi = 0.005, 0.995

func clampAcc(a float64) float64 {
	if a < accClampLo {
		return accClampLo
	}
	if a > accClampHi {
		return accClampHi
	}
	return a
}

func clampRate(v float64) float64 {
	const lo, hi = 0.01, 0.99
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
