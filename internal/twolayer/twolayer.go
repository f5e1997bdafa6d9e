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
//   - Over K shard graphs the round driver spends the workers on the graphs
//     first (FuseLockstep): each stage of a round is one fork-join across the
//     graphs, and a graph's own loops split only the workers left over — an
//     engine's output does not depend on its worker count, so this is a
//     scheduling choice and nothing else.
//
// # Warm chains
//
// The extractors never stop producing, so the model is re-fused as the feed
// grows: extract.Compiled.Append extends the graph, and a run seeded from the
// previous run's State (FuseCompiledWarm, FuseLockstep) starts where that one
// stopped. Two things make such a step follow the batch instead of the
// corpus, and neither can move a bit of any result:
//
//   - The step engines outlive their generation. The State a seeded run
//     returns carries them; the first run seeded from that State takes them
//     (exclusively — a second successor, a fork, a decoded State or another
//     shard count builds fresh ones) and rebinds them to its graph, regrowing
//     buffers instead of allocating the whole state again.
//   - A run ends with an E-step under the parameters it hands on, and the
//     next run's first E-step runs under exactly those parameters — so for
//     every statement and item the batch did not touch it would recompute what
//     the engine still holds. A carried engine therefore revises: it
//     re-scores the statements whose inputs changed and the items owning
//     them, and keeps the rest. It does so only where it can prove the
//     outcome equal (engine.rebind, engine.dirtyScope): its last run was on
//     exactly the generation the new graph extends (the graph remembers its
//     parent's token), under the same model configuration, and the round's
//     parameter tables are compared bit for bit with the ones it last ran
//     under, so an edited State is honoured like any other change. Anything
//     else — and every later E-step of the run — is the ordinary full pass.
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
	"slices"
	"sync"

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

// Validate reports configuration errors. Range checks are written so that
// NaN fails them.
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
		if !(f.v > 0 && f.v < 1) {
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
// by the State (copies, not views into engine state), and they are what
// EncodeState stores; the values in them when a run is seeded are the values
// it starts from, so they may be edited.
//
// The State a seeded run returns also carries, unexported, the step engines
// that produced it — with their last E-step still in them — for the first run
// seeded from it to take over (see the package comment, Warm chains). That
// costs memory, not meaning: a live State pins its engines' buffers (about
// 5 MB at 100k statements on the benchmark feed) until a successor takes them
// or the State is dropped, an unseeded run's State (a sweep keeps dozens) and
// a decoded one carry none, and a run gives the same bits with or without
// them. Because of the
// mutex guarding the hand-off a State must not be copied by value; pass the
// pointer, and compare the three vectors rather than the struct.
type State struct {
	SrcAcc   []float64 // source ID -> accuracy
	Recall   []float64 // extractor ID -> recall
	FalsePos []float64 // extractor ID -> false-positive rate

	// engines are the step engines of the seeded run that returned this
	// State, until the first run seeded from it takes them (takeEngines).
	mu      sync.Mutex
	engines []*engine
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
//
// Chained this way — g reached from the graph warm was returned on by one
// Append, warm passed on as returned, the same model configuration — a step
// recycles the previous step's engines and revises their last E-step instead
// of repeating it (see the package comment, Warm chains); any other call
// computes the same result the long way.
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

// engine is the EM state over a compiled extraction graph. Every slice is
// indexed by an interned ID; the EM rounds allocate nothing. An engine is
// bound to its graph and configuration by rebind, and along a warm chain it
// outlives its generation: the State a seeded FuseLockstep returns carries
// it, and the next run rebinds it to the next graph (see rebind, carried).
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

	// The round driver's per-graph M-step evidence buffers (source num/den,
	// extractor partials). They live here so they pass from generation to
	// generation with the engine; only FuseLockstep touches them.
	num, den []float64
	ext      [][4]float64

	// ranOn is the token of the graph whose E-steps stated, stWeight and
	// tripleP hold in full, under the tables in lrAdj, srcBase and srcLogW:
	// set by the driver when it hands the engine on after its final E-step,
	// cleared by rebind. first is what rebind could prove about the step from
	// that graph to the new one; the run's first inferStatements consumes it.
	ranOn uint64
	first carried
	// was* are the tables of the carried E-step, set aside while the first
	// inferStatements of the next run computes its own over them.
	wasAdj, wasBase, wasLogW []float64
	// dirtySts and dirtyItems list what a dirty pass re-scores; items is the
	// item set the next inferTruth runs over, left by inferStatements.
	dirtySts, dirtyItems []int32
	items                scope
	// rescored is the number of statements the run's first inferStatements
	// scored, -1 until it has run.
	rescored int
}

// carried describes a rebound engine whose arrays still hold the final
// E-step of the generation its new graph extends (or of that very graph),
// under the same model configuration: statement IDs below sts mean what they
// meant there, with the extractor lists they had there except for grown, and
// the engine then knew nSrc sources and nExt extractors. ok is false —
// the full pass — whenever rebind could not establish all of that.
type carried struct {
	ok         bool
	sts        int
	grown      []int32
	nSrc, nExt int
}

// scope is the index set one E-step pass runs over: the IDs in list, then
// every ID from from on. The zero scope is every ID — the full pass; a dirty
// pass lists the old IDs it must revisit and starts the range at the first
// new one. Both passes are the same loop over scope.at.
type scope struct {
	list []int32
	from int
}

// size is the number of IDs in the scope over an ID space of n.
func (sc scope) size(n int) int { return len(sc.list) + n - sc.from }

// at maps a position in [0, size) to its ID.
func (sc scope) at(k int) int32 {
	if k < len(sc.list) {
		return sc.list[k]
	}
	return int32(sc.from + k - len(sc.list))
}

// pairCacheMaxCells caps the single-hit sigmoid cache's per-worker pair
// space (source count × extractor count). Above it the cache would cost more
// zeroed memory than the sigmoids it saves; the layer-1 loop then computes
// the identical expression inline, so the gate — a pure function of the
// graph — cannot affect results.
const pairCacheMaxCells = 1 << 18

// rebind is the one engine sizing routine: it binds e to graph g under cfg
// and sizes every buffer for g. A fresh engine is the zero engine rebound
// (newRun) and gets exactly the sizes it needs; a recycled one — handed from
// the previous generation's State to the next run, see FuseLockstep — keeps
// every buffer that is still large enough and regrows the rest with
// headroom, so along an append chain the per-generation allocation is the
// occasional regrowth, not the whole state.
//
// A recycled engine also keeps its contents, and rebind decides what they
// are still worth (e.first). The parameters are re-initialised either way —
// the driver installs every one of them before the first E-step — and
// ghostMiss is dropped for the driver to reinstall. The pair cache needs no
// clearing: its stamps come from roundSeq, which keeps counting across
// rebinds, so no entry of an earlier run can match a later round.
func (e *engine) rebind(g *extract.Compiled, cfg Config) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// What the arrays hold is usable only if they hold all of it for exactly
	// the generation g extends (or g's own graph: an empty Append shares it),
	// computed under the same model — every Config field but the round cap
	// and the worker bound, neither of which can move a bit.
	e.first = carried{nSrc: len(e.srcBase), nExt: len(e.lrAdj)}
	if e.ranOn != 0 && sameModel(e.cfg, cfg) {
		switch parent, sts, grown := g.Parent(); e.ranOn {
		case g.Token():
			e.first.ok, e.first.sts = true, g.NumStatements()
		case parent:
			e.first.ok, e.first.sts, e.first.grown = true, sts, grown
		}
	}
	e.ranOn = 0

	nSt, nSrc, nExt := g.NumStatements(), g.NumSources(), g.NumExtractors()
	e.g, e.cfg, e.workers = g, cfg, workers
	e.ghostMiss = nil
	e.rescored = -1

	nTriOld := len(e.tripleP)
	e.stated = regrow(e.stated, nSt)
	e.stWeight = regrow(e.stWeight, nSt)
	e.tripleP = regrow(e.tripleP, g.NumTriples())
	e.srcAcc = regrow(e.srcAcc, nSrc)
	e.srcBase = regrow(e.srcBase, nSrc)
	e.srcLogW = regrow(e.srcLogW, nSrc)
	e.num = regrow(e.num, nSrc)
	e.den = regrow(e.den, nSrc)
	e.recall = regrow(e.recall, nExt)
	e.falsePos = regrow(e.falsePos, nExt)
	e.lrHit = regrow(e.lrHit, nExt)
	e.lrMiss = regrow(e.lrMiss, nExt)
	e.lrAdj = regrow(e.lrAdj, nExt)
	e.oneMinusR = regrow(e.oneMinusR, nExt)
	e.oneMinusF = regrow(e.oneMinusF, nExt)
	e.ext = regrow(e.ext, nExt)
	e.extTotals = regrow(e.extTotals, nExt)
	e.blockSums = regrow(e.blockSums, len(g.ExtStatementBlocks()))
	if !e.first.ok {
		nTriOld = 0
	}
	for i := nTriOld; i < len(e.tripleP); i++ {
		e.tripleP[i] = 0.5
	}
	for i := range e.srcAcc {
		e.srcAcc[i] = cfg.InitSourceAccuracy
	}
	for i := range e.recall {
		e.recall[i] = cfg.InitRecall
		e.falsePos[i] = cfg.InitFalsePos
	}

	e.blockWorkers, e.baseWorkers = 1, 1
	incidence := 0
	for _, b := range g.ExtStatementBlocks() {
		incidence += int(b.Hi - b.Lo)
	}
	if incidence >= elementwiseParallelThreshold {
		e.blockWorkers = workers
	}
	if g.NumSourceExtractors() >= elementwiseParallelThreshold {
		e.baseWorkers = workers
	}

	cells := nSrc * nExt
	if cells > pairCacheMaxCells {
		cells = 0 // cache off: the slots stay nil
	}
	e.scores = regrow(e.scores, workers)
	e.pairP = regrow(e.pairP, workers)
	e.pairStamp = regrow(e.pairStamp, workers)
	for w := 0; w < workers; w++ {
		e.scores[w] = regrow(e.scores[w], g.MaxItemTriples())
		e.pairP[w] = regrow(e.pairP[w], cells)
		e.pairStamp[w] = regrow(e.pairStamp[w], cells)
	}
}

// sameModel reports whether two configurations describe the same model:
// every field but Rounds and Workers, which bound the work and never enter a
// result.
func sameModel(a, b Config) bool {
	a.Rounds, a.Workers = 0, 0
	b.Rounds, b.Workers = 0, 0
	return a == b
}

// regrow returns s at length n: its own backing array when that is large
// enough, otherwise a new one with append's geometric headroom — exactly n
// (up to the allocator's size class) from nothing — so a buffer that grows a
// little every generation is reallocated only now and then. Elements below
// the old length keep their values; the rest are unspecified.
func regrow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
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
	if e.roundSeq == math.MaxInt32 {
		// The stamp space is used up: forget every cached pair and start over.
		for w := range e.pairStamp {
			clear(e.pairStamp[w][:cap(e.pairStamp[w])])
		}
		e.roundSeq = 0
	}
	e.roundSeq++
	seq := e.roundSeq
	// Only the first E-step of a run can follow a carried one; set its tables
	// aside before this round's overwrite them.
	first := e.first
	e.first = carried{}
	if first.ok {
		e.wasAdj = append(e.wasAdj[:0], e.lrAdj[:first.nExt]...)
		e.wasBase = append(e.wasBase[:0], e.srcBase[:first.nSrc]...)
		e.wasLogW = append(e.wasLogW[:0], e.srcLogW[:first.nSrc]...)
	}
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
		mathx.LogOddsSlice(e.srcLogW[lo:hi], e.srcAcc[lo:hi], nFalse, accClampLo, accClampHi)
	})
	mathx.LogRatioSlice(e.lrHit, e.recall, e.falsePos)
	for x := range e.recall {
		e.oneMinusR[x] = 1 - e.recall[x]
		e.oneMinusF[x] = 1 - e.falsePos[x]
	}
	mathx.LogRatioSlice(e.lrMiss, e.oneMinusR, e.oneMinusF)
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

	sts := scope{}
	e.items = scope{}
	if first.ok {
		sts, e.items = e.dirtyScope(first)
	}
	n := sts.size(g.NumStatements())
	if e.rescored < 0 {
		e.rescored = n
	}
	nExt := int32(len(e.recall))
	csr.ParallelRange(n, e.workers, func(w, lo, hi int) {
		pairP, pairStamp := e.pairP[w], e.pairStamp[w]
		for k := lo; k < hi; k++ {
			si := sts.at(k)
			src := g.StatementSource(si)
			hits := g.StatementExtractors(si)
			var pv float64
			if len(hits) == 1 && len(pairStamp) != 0 {
				cell := src*nExt + hits[0]
				if pairStamp[cell] != seq {
					pairP[cell] = mathx.Sigmoid(e.srcBase[src] + e.lrAdj[hits[0]])
					pairStamp[cell] = seq
				}
				pv = pairP[cell]
			} else {
				logOdds := e.srcBase[src]
				for _, x := range hits {
					logOdds += e.lrAdj[x]
				}
				pv = mathx.Sigmoid(logOdds)
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

// dirtyScope is the exact dirty set of a carried engine's first E-step: the
// statements and items whose inputs differ from what the carried E-step —
// the last one of the generation before, whose outputs the arrays still
// hold — computed them from. The round's tables are already in place; they
// are compared bit for bit with the carried ones (was*), so nothing about
// the parameters is assumed: a source the batch paired with a new extractor,
// a ghost list the coordinator changed and an accuracy somebody edited in the
// State all show as a moved srcBase or srcLogW.
//
// A statement's probability and vote are a function of its source's srcBase
// and srcLogW and of the lrAdj of the extractors on its list. So: if any
// extractor the carried step knew has a different lrAdj, everything is dirty
// (the full scope). Otherwise the dirty statements are those of a source
// with a moved table entry, those whose extractor list the batch grew, and
// the new ones (the range from c.sts); an extractor new to this generation
// can only be on a grown or a new list. An item's probabilities are a
// function of its triples' statement votes, so the dirty items are the
// owners of the dirty statements' triples — a new triple has a new
// statement.
func (e *engine) dirtyScope(c carried) (sts, items scope) {
	g := e.g
	for x, was := range e.wasAdj {
		if math.Float64bits(e.lrAdj[x]) != math.Float64bits(was) {
			return scope{}, scope{}
		}
	}
	moved := func(s int32) bool {
		return int(s) < c.nSrc &&
			(math.Float64bits(e.srcBase[s]) != math.Float64bits(e.wasBase[s]) ||
				math.Float64bits(e.srcLogW[s]) != math.Float64bits(e.wasLogW[s]))
	}
	list := e.dirtySts[:0]
	for s := int32(0); int(s) < c.nSrc; s++ {
		if !moved(s) {
			continue
		}
		for _, si := range g.SourceStatements(s) {
			if int(si) >= c.sts {
				break // ascending: the new ones are in the range
			}
			list = append(list, si)
		}
	}
	for _, si := range c.grown {
		if !moved(g.StatementSource(si)) {
			list = append(list, si)
		}
	}
	e.dirtySts = list
	sts = scope{list: list, from: c.sts}

	owners := e.dirtyItems[:0]
	for k, n := 0, sts.size(g.NumStatements()); k < n; k++ {
		owners = append(owners, g.ItemOfTriple(g.StatementTriple(sts.at(k))))
	}
	slices.Sort(owners)
	owners = slices.Compact(owners)
	e.dirtyItems = owners
	return sts, scope{list: owners, from: g.NumItems()}
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
	items := e.items
	e.items = scope{}
	csr.ParallelRange(items.size(g.NumItems()), e.workers, func(w, lo, hi int) {
		buf := e.scores[w]
		for k := lo; k < hi; k++ {
			tis := g.ItemTriples(items.at(k))
			scores := buf[:len(tis)]
			for vi, ti := range tis {
				s := 0.0
				for _, si := range g.TripleStatements(ti) {
					s += e.stWeight[si]
				}
				scores[vi] = s
			}
			unknown := nFalse - float64(len(tis))
			if unknown < 0 {
				unknown = 0
			}
			mathx.SoftmaxInto(scores, scores, unknown)
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
