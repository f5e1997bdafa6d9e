package fusion

import (
	"math"
	"runtime"
	"slices"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
	"kfusion/internal/mathx"
	"kfusion/internal/randx"
)

// The compiled engine: Fuse first interns the claim set into a graph
// (compile.go) and then executes Figure 8's stages as flat loops over that
// graph:
//
//   - Stage I walks items through CSR spans, scoring candidates into dense
//     per-worker scratch arrays and writing per-claim probabilities into a
//     round-stamped flat slice. Provenance accuracies live in a []float64
//     indexed by prov ID, and each provenance's log-score term is
//     precomputed once per round.
//   - Stage II walks provenances through their CSR spans and re-estimates
//     accuracies from the stamped probabilities.
//   - Stage III reads the per-triple support counts interned at compile
//     time and attaches the final round's probabilities.
//
// The passes are sequenced by the round driver (FuseLockstep, shardrun.go),
// which owns the loop, the stage-II update and everything around it. The
// per-round inner loop allocates nothing; rounds reuse the same graph and
// buffers. Results are deterministic for a fixed input order and
// independent of Workers: items (and provenances) are scored independently,
// and every floating-point reduction runs in a fixed CSR order.

// engine holds the compiled graph plus the evolving per-round state.
type engine struct {
	cfg Config
	g   *graph

	provAcc     []float64 // prov ID -> current accuracy estimate (raw)
	provDefault []bool    // prov ID -> still at the unevaluated default
	provTerm    []float64 // prov ID -> per-round log score term (ACCU, POPACCU)

	claimProb  []float64 // claim ID -> probability of its triple this round
	claimStamp []int32   // claim ID -> round+1 when last scored

	// partSums/partCnts are this graph's stage-II partials, one pair per
	// provenance: where the round driver has ProvPartials write each round
	// (see partials).
	partSums []float64
	partCnts []int32

	// logCount[k] = log(k) for every possible per-item support count
	// (POPACCU only): the popularity term log q(v) = log n(v) - log n then
	// needs no transcendental in the per-item loop. logCount[0] = -Inf, the
	// absent-lane convention the softmax kernel expects.
	logCount []float64

	// Stage II block reduction over giant provenances: nil while every
	// provenance span fits in one csr.ReduceBlockSize block (the linear walk
	// is then already the block reduction). Otherwise provBlocks holds the
	// SpanBlocks cut of provClaimStart and provBlockStart[p] the index of
	// provenance p's first block.
	provBlocks     []csr.Block
	provBlockStart []int32

	workers   int
	scratches []scoreScratch
}

// scoreScratch is one worker's dense per-item scoring state, sized by the
// largest candidate list.
type scoreScratch struct {
	counts []int32      // per candidate: claims supporting it this round
	aux    []float64    // per candidate: log-popularity / fallback accuracy sum
	scores []float64    // per candidate: accumulated vote score
	probs  []float64    // per candidate: resulting probability
	selCov []int32      // coverage-filtered claim list
	selAcc []int32      // accuracy-filtered claim list
	parts  [][2]float64 // per stage-II block of one provenance: {prob sum, count}
}

// Fuse runs the configured method over the claims and returns per-triple
// probabilities. It is the compile-then-fuse convenience: the claim set is
// compiled once into an interned graph (see Compile) and fused under cfg.
// It is deterministic for a fixed (claims, cfg) and independent of
// cfg.Workers. Callers fusing the same claim set under several
// configurations should Compile once and call (*Compiled).Fuse per config
// instead, amortizing the compilation. FuseReference preserves the original
// shuffle-per-round pipeline for cross-checking.
func Fuse(claims []Claim, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := CompileWorkers(claims, cfg.Workers, 0)
	if err != nil {
		return nil, err
	}
	return c.Fuse(cfg)
}

// MustFuse is Fuse for statically-valid configurations.
func MustFuse(claims []Claim, cfg Config) *Result {
	r, err := Fuse(claims, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Fuse runs one fusion configuration over the compiled claim graph. The
// graph is shared, immutable input: every call runs on per-run engine state
// of its own (provenance accuracies, per-claim probabilities, scratch), so
// results are bit-identical to a fresh fusion.Fuse of the same claims and
// concurrent calls on one Compiled are safe. cfg.Workers bounds only the
// per-round stage parallelism here — the graph is already compiled — and,
// as everywhere, never affects results. cfg.Granularity is inert at this
// point: it selects how extractions were flattened into the
// claims this graph was compiled from (see the Compiled doc); fuse each
// granularity's claim set through its own Compile.
func (c *Compiled) Fuse(cfg Config) (*Result, error) {
	return c.FuseWarm(cfg, nil)
}

// MustFuse is Compiled.Fuse for statically-valid configurations.
func (c *Compiled) MustFuse(cfg Config) *Result {
	r, err := c.Fuse(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// WarmTol is the documented warm-start-vs-cold-start tolerance, and it
// applies in the converged regime: when both the warm and the cold run stop
// because the per-round accuracy delta fell below Config.Epsilon (rather
// than hitting the Rounds cap), they halt in Epsilon-sized neighborhoods of
// the same EM fixed point approached from different sides, and every
// probability and provenance accuracy (all in [0,1]) agrees within this
// absolute bound — a small multiple of the default 1e-4 Epsilon, pinned by
// the warm-start equivalence tests. When the Rounds cap bites first (the
// paper's R = 5 is a forced cut-off, not convergence), warm and cold are
// different truncations of the same iteration and can differ up to the
// remaining convergence distance; callers who need the bound on appended
// batches should let Epsilon terminate (the whole point of warm start is
// that it then stops after one or two rounds).
const WarmTol = 5e-3

// FuseWarm is Fuse seeded from a previous fusion result — the warm start of
// the append pipeline. Every provenance whose key appears in prev's
// ProvAccuracy starts at that accuracy (and counts as evaluated for the
// coverage filter) instead of Config.DefaultAccuracy; provenances new to
// this generation start cold. Two regimes:
//
//   - Converged (Epsilon-stopped) data: seeding near the fixed point makes
//     the per-round delta start small, so EM stops after a round or two and
//     the output stays within the documented WarmTol of cold start.
//
//   - Round-capped streaming (the paper's forced R; real POPACCU runs
//     oscillate rather than converge): run FuseWarm as online EM — carry
//     the accuracies batch to batch with cfg.Rounds = 1 — for a fraction
//     of the cold-start cost. The output is then a different truncation of
//     the same non-converging iteration, not pointwise-close to cold
//     start; the documented equivalence is in evaluation quality (WDev and
//     AUC-PR within small bounds of the cold R=5 recompile, pinned by the
//     bench-scale warm-quality test and measured by BenchmarkAppendBatch).
//
// A nil or empty prev degrades to Fuse. Gold-standard initialization
// (Config.GoldLabeler), when configured, runs after seeding and overrides
// it for labeled provenances, exactly as it overrides the default.
//
// FuseWarm is the driver's one-graph call followed by Posterior.Result: the
// engine computes the native form and this materialises the exchange form
// from it. The result remembers the posterior's seed (Result.Seed), which is
// what makes a chain cheap. When prev is the result an earlier
// generation of this chain returned (c reached from that graph by Appends),
// seeding costs no map lookup — the accuracies are installed by provenance
// ID — and this run takes over the step engines that produced prev, regrown
// to the new graph instead of rebuilt (see FuseLockstep). A decoded,
// hand-built or foreign prev seeds through ProvAccuracy by key with fresh
// engines, as does a second FuseWarm from the same prev; the result is the
// same bits either way. The seed is fixed when a result is materialised:
// edit a result's accuracies by passing a fresh Result{ProvAccuracy: m}, not
// by writing into the returned map.
func (c *Compiled) FuseWarm(cfg Config, prev *Result) (*Result, error) {
	post, err := FuseLockstep([]*Compiled{c}, nil, cfg, prev.Seed())
	if err != nil {
		return nil, err
	}
	return post.Result(), nil
}

// MustFuseWarm is FuseWarm for statically-valid configurations.
func (c *Compiled) MustFuseWarm(cfg Config, prev *Result) *Result {
	r, err := c.FuseWarm(cfg, prev)
	if err != nil {
		panic(err)
	}
	return r
}

// rebind is the one engine sizing routine: it binds e to graph g under cfg,
// sizing every buffer for g and resetting all per-run state. A fresh engine
// is the zero engine rebound (newRun); a recycled one — handed from the
// previous generation's posterior to the next run, see FuseLockstep — keeps
// the buffers that are still large enough and regrows the rest with
// headroom, so along an append chain the per-generation allocation is the
// occasional regrowth, not the whole state. Nothing of the previous run
// survives: accuracies and default flags are re-initialised, the tables that
// depend on the graph or the config are recomputed, and the claim stamps are
// cleared — a warm Rounds=1 generation stamps with 1 again, which a stale
// stamp from the generation before must not match.
func (e *engine) rebind(g *graph, cfg Config) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Tiny inputs run single-threaded; per-item work is independent,
		// so this cannot change the output, only the goroutine overhead.
		// An explicit Workers is always honored, so multi-worker tests
		// exercise real parallelism even on small claim sets.
		if g.numClaims() < 2048 {
			workers = 1
		}
	}
	nProvs := len(g.provKeys)
	e.cfg, e.g, e.workers = cfg, g, workers
	e.provAcc = regrow(e.provAcc, nProvs)
	e.provDefault = regrow(e.provDefault, nProvs)
	e.provTerm = regrow(e.provTerm, nProvs)          // rewritten whole by every stageI that reads it
	e.claimProb = regrow(e.claimProb, g.numClaims()) // read only under a matching stamp
	e.claimStamp = regrow(e.claimStamp, g.numClaims())
	clear(e.claimStamp)
	for p := range e.provAcc {
		e.provAcc[p] = cfg.DefaultAccuracy
		e.provDefault[p] = true
	}
	// Giant provenances (spans past one fixed block) re-estimate through the
	// csr.SpanBlocks/Pairwise block reduction. The cut depends only on span
	// lengths: whether a provenance block-reduces is a property of the data,
	// never of Workers, and a single-block fold is the identity, so every
	// span at or under ReduceBlockSize keeps the historical linear-walk bits.
	e.provBlocks, e.provBlockStart = nil, nil
	maxBlocks := 0
	for p := 0; p < nProvs; p++ {
		if int(g.provClaimStart[p+1])-int(g.provClaimStart[p]) > csr.ReduceBlockSize {
			e.provBlocks = csr.SpanBlocks(g.provClaimStart)
			e.provBlockStart = make([]int32, nProvs+1)
			for b := range e.provBlocks {
				e.provBlockStart[e.provBlocks[b].Group+1] = int32(b + 1)
			}
			for q := 1; q <= nProvs; q++ {
				if e.provBlockStart[q] < e.provBlockStart[q-1] {
					e.provBlockStart[q] = e.provBlockStart[q-1] // empty span
				}
			}
			for q := 0; q < nProvs; q++ {
				if n := int(e.provBlockStart[q+1] - e.provBlockStart[q]); n > maxBlocks {
					maxBlocks = n
				}
			}
			break
		}
	}
	e.logCount = e.logCount[:0]
	if cfg.Method == PopAccu {
		maxSpan := 0
		for i := 0; i+1 < len(g.itemClaimStart); i++ {
			if n := int(g.itemClaimStart[i+1] - g.itemClaimStart[i]); n > maxSpan {
				maxSpan = n
			}
		}
		e.logCount = regrow(e.logCount, maxSpan+1)
		for k := range e.logCount {
			e.logCount[k] = float64(k)
		}
		mathx.LogSlice(e.logCount, e.logCount)
	}
	// Scoring scratch is zeroed where it is used, so it carries over as is.
	e.scratches = regrow(e.scratches, workers)
	for w := range e.scratches {
		sc := &e.scratches[w]
		sc.counts = regrow(sc.counts, g.maxCandidates)
		sc.aux = regrow(sc.aux, g.maxCandidates)
		sc.scores = regrow(sc.scores, g.maxCandidates)
		sc.probs = regrow(sc.probs, g.maxCandidates)
		sc.parts = regrow(sc.parts, maxBlocks)
	}
}

// partials returns the engine's stage-II partial buffers at the graph's
// provenance count. They are sized on first use after a rebind, not in it:
// VOTE has no stage II, and a caller sequencing a Run itself brings its own.
func (e *engine) partials() ([]float64, []int32) {
	n := len(e.g.provKeys)
	e.partSums, e.partCnts = regrow(e.partSums, n), regrow(e.partCnts, n)
	return e.partSums, e.partCnts
}

// regrow returns s at length n with unspecified contents: its own backing
// array when that is large enough, otherwise a new one with append's
// geometric headroom, so a buffer that grows a little every generation is
// reallocated only now and then.
func regrow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return slices.Grow(s[:0], n)[:n]
}

// goldCounts tallies each provenance's (true, labeled) gold-claim counts at
// the configured sampling rate (deterministic per (provenance, triple), so
// runs with the same rate see the same label subset). Counts are integers,
// so the round driver sums them across shards exactly.
func (e *engine) goldCounts() (trueN, labeled []int32) {
	rate := e.cfg.GoldSampleRate
	if rate == 0 {
		rate = 1
	}
	nProvs := len(e.g.provKeys)
	trueN = make([]int32, nProvs)
	labeled = make([]int32, nProvs)
	for i, tid := range e.g.tripleOfClaim {
		t := e.g.triples[tid]
		label, ok := e.cfg.GoldLabeler(t)
		if !ok {
			continue
		}
		p := e.g.provOfClaim[i]
		if rate < 1 {
			// Deterministic per (prov, triple) sampling so runs with the
			// same rate see the same label subset.
			if hashUnit(e.g.provKeys[p], sampleKey(t)) >= rate {
				continue
			}
		}
		labeled[p]++
		if label {
			trueN[p]++
		}
	}
	return trueN, labeled
}

// parallelRange splits [0,n) across the engine's workers and waits (see
// csr.ParallelRange for the contract).
func (e *engine) parallelRange(n int, f func(worker, lo, hi int)) {
	csr.ParallelRange(n, e.workers, f)
}

// provTermParallelThreshold is the provenance count below which the
// per-round provTerm table stays sequential (the shared elementwise cutoff;
// tuned in internal/csr). The gate depends only on the provenance count, so
// results stay independent of Workers (the pass is elementwise — exact for
// any split).
const provTermParallelThreshold = csr.ElementwiseThreshold

// stageI scores every data item with the current provenance accuracies
// (Figure 8, Stage I) — a parallel flat loop over the compiled item spans.
func (e *engine) stageI(round int) {
	// A claim's log score term depends only on its provenance, so the log
	// is taken once per provenance per round instead of once per claim per
	// candidate — elementwise over the provenance table, in parallel once
	// the table is large enough to pay for the goroutines.
	if e.cfg.Method == Accu || e.cfg.Method == PopAccu {
		pw := e.workers
		if len(e.provAcc) < provTermParallelThreshold {
			pw = 1
		}
		// POPACCU's term log(a/(1-a)) is ACCU's with nf = 1 (1*a == a
		// exactly, so the shared expression is bit-identical to the
		// per-method ones).
		nf := 1.0
		if e.cfg.Method == Accu {
			nf = float64(e.cfg.NFalse)
		}
		csr.ParallelRange(len(e.provAcc), pw, func(_, lo, hi int) {
			mathx.LogOddsSlice(e.provTerm[lo:hi], e.provAcc[lo:hi], nf, accClampLo, accClampHi)
		})
	}
	e.parallelRange(len(e.g.items), func(w, lo, hi int) {
		sc := &e.scratches[w]
		for item := lo; item < hi; item++ {
			e.scoreItem(sc, int32(item), round)
		}
	})
}

// scoreItem computes the probability of each candidate triple of one data
// item and stamps the surviving claims with their probabilities.
func (e *engine) scoreItem(sc *scoreScratch, item int32, round int) {
	g := e.g
	claims := g.itemClaims[g.itemClaimStart[item]:g.itemClaimStart[item+1]]
	if len(claims) > e.cfg.SampleL {
		claims = e.sampleClaims(g.items[item], claims)
	}
	nCand := int(g.itemCandStart[item+1] - g.itemCandStart[item])
	counts := sc.counts[:nCand]
	stamp := int32(round + 1)

	// Coverage filter (§4.3.2): in round 0, only score items where some
	// triple has >= 2 provenances; later, drop provenances still at the
	// default accuracy.
	if e.cfg.FilterByCoverage {
		if round == 0 {
			for l := range counts {
				counts[l] = 0
			}
			maxN := int32(0)
			for _, c := range claims {
				l := g.localOfClaim[c]
				counts[l]++
				if counts[l] > maxN {
					maxN = counts[l]
				}
			}
			if maxN < 2 {
				return
			}
		} else {
			kept := sc.selCov[:0]
			for _, c := range claims {
				if !e.provDefault[g.provOfClaim[c]] {
					kept = append(kept, c)
				}
			}
			sc.selCov = kept[:0:cap(kept)]
			if len(kept) == 0 {
				return
			}
			claims = kept
		}
	}

	// Accuracy filter (θ): drop low-accuracy provenances; if the item loses
	// everything, fall back to the mean provenance accuracy per triple.
	scored := claims
	if θ := e.cfg.AccuracyThreshold; θ > 0 {
		kept := sc.selAcc[:0]
		for _, c := range claims {
			if e.provAcc[g.provOfClaim[c]] >= θ {
				kept = append(kept, c)
			}
		}
		sc.selAcc = kept[:0:cap(kept)]
		if len(kept) == 0 {
			accSum := sc.aux[:nCand]
			for l := range counts {
				counts[l] = 0
				accSum[l] = 0
			}
			for _, c := range claims {
				l := g.localOfClaim[c]
				counts[l]++
				//lint:ignore kflint/floatsum scatter-add indexed by the claim's own candidate, in fixed claim-span order — not a parallel reduction; every run adds the same terms in the same order.
				accSum[l] += e.provAcc[g.provOfClaim[c]]
			}
			for _, c := range claims {
				l := g.localOfClaim[c]
				e.claimProb[c] = accSum[l] / float64(counts[l])
				e.claimStamp[c] = stamp
			}
			return
		}
		scored = kept
	}

	for l := range counts {
		counts[l] = 0
	}
	for _, c := range scored {
		counts[g.localOfClaim[c]]++
	}
	n := len(scored)
	probs := sc.probs[:nCand]

	switch e.cfg.Method {
	case Vote:
		for l := 0; l < nCand; l++ {
			if counts[l] > 0 {
				probs[l] = float64(counts[l]) / float64(n)
			}
		}
	case Accu, PopAccu:
		scores := sc.scores[:nCand]
		var logq []float64
		nPresent := 0
		for l := 0; l < nCand; l++ {
			if counts[l] > 0 {
				scores[l] = 0
				nPresent++
			} else {
				// Absent candidates carry -Inf so the full-width softmax
				// kernel gives them exp(-Inf) = 0 mass without a presence
				// branch in its lanes.
				scores[l] = math.Inf(-1)
			}
		}
		if e.cfg.Method == PopAccu {
			// q(v) = n(v)/n — the observed popularity that replaces ACCU's
			// uniform false-value distribution and discounts popular
			// (possibly copied) false values. Support counts are small
			// integers, so log q comes from the engine's log-count table —
			// no transcendental per lane. Absent lanes get
			// logCount[0] = -Inf and are never read.
			logq = sc.aux[:nCand]
			logN := e.logCount[n]
			for l := 0; l < nCand; l++ {
				logq[l] = e.logCount[counts[l]] - logN
			}
		}
		for _, c := range scored {
			l := g.localOfClaim[c]
			term := e.provTerm[g.provOfClaim[c]]
			if logq != nil {
				term -= logq[l]
			}
			//lint:ignore kflint/floatsum scatter-add indexed by the claim's own candidate, in fixed claim-span order — the span is a compiled CSR row, so the addition order is identical across runs.
			scores[l] += term
		}
		// Softmax over the present candidates plus the unknown-value mass:
		// ACCU reserves the N - |V| unobserved false values, POPACCU one
		// unit — the mechanism behind Figure 9's calibration valleys. The
		// kernel's implicit extra candidate at score 0 is exactly the
		// unknown-value mass, and its single-exp pass is bit-identical to
		// the historical two-exp max-subtraction form.
		unknown := 1.0
		if e.cfg.Method == Accu {
			unknown = float64(e.cfg.NFalse - nPresent)
			if unknown < 0 {
				unknown = 0
			}
		}
		mathx.SoftmaxInto(probs, scores, unknown)
	}

	for _, c := range scored {
		e.claimProb[c] = probs[g.localOfClaim[c]]
		e.claimStamp[c] = stamp
	}
}

// stageIII attaches the final probabilities to the deduplicated triple set
// interned at compile time (Figure 8, Stage III): prob (len(g.triples) long
// — the round driver hands each graph its segment of the merged column)
// receives, per triple in compiled order, the probability its claims were
// stamped with in the last round, or -1 when the filters left none scored.
// Everything else an output row holds is already in the graph (see
// Compiled.Support).
func (e *engine) stageIII(lastStamp int32, prob []float64) {
	g := e.g
	e.parallelRange(len(g.triples), func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			p := -1.0
			for _, c := range g.tripleClaims[g.tripleClaimStart[t]:g.tripleClaimStart[t+1]] {
				if e.claimStamp[c] == lastStamp {
					p = e.claimProb[c]
					break
				}
			}
			prob[t] = p
		}
	})
}

// sampleClaims caps an item's claim list at SampleL with a deterministic
// reservoir (the paper's L sampling). The stream order and seed match the
// seed engine's, so the sampled subset is identical.
func (e *engine) sampleClaims(item kb.DataItem, claims []int32) []int32 {
	src := randx.New(e.cfg.SampleSeed ^ int64(kb.StringHash(item.String())))
	r := randx.NewReservoir[int32](e.cfg.SampleL, src)
	for _, c := range claims {
		r.Add(c)
	}
	return r.Items()
}

// provStat computes one provenance's stage-II statistic over its claims
// scored at stamp: the probability sum and count, in compiled claim-span
// order. When the scored span exceeds SampleL it switches to the paper's
// deterministic reservoir sample (sampleProbsSum), so the returned count is
// the reservoir size; either way the re-estimated accuracy is exactly
// sum/cnt. The (sum, cnt) pair is the unit the round driver folds across
// graphs — partials from shards holding slices of one provenance add before
// the final division.
//
// Spans past csr.ReduceBlockSize block-reduce: each fixed block sums
// left-to-right into a {sum, count} partial and the partials fold with the
// csr.Pairwise tree, so a giant provenance's re-estimate is a pure function
// of its span length — same bits for any Workers — with pairwise instead of
// linear error growth. Spans within one block (the common case, and the
// whole graph when provBlocks is nil) keep the historical linear walk, which
// a single-block fold is identical to.
func (e *engine) provStat(sc *scoreScratch, p, stamp int32) (float64, int32) {
	g := e.g
	if e.provBlocks != nil {
		if b0, b1 := e.provBlockStart[p], e.provBlockStart[p+1]; b1-b0 > 1 {
			parts := sc.parts[:b1-b0]
			for i, b := range e.provBlocks[b0:b1] {
				sum := 0.0
				cnt := 0.0
				for _, c := range g.provClaims[b.Lo:b.Hi] {
					if e.claimStamp[c] == stamp {
						sum += e.claimProb[c]
						cnt++
					}
				}
				parts[i] = [2]float64{sum, cnt}
			}
			folded := csr.Pairwise(parts, func(a, b [2]float64) [2]float64 {
				return [2]float64{a[0] + b[0], a[1] + b[1]}
			})
			sum, cnt := folded[0], int32(folded[1])
			if int(cnt) > e.cfg.SampleL {
				return e.sampleProbsSum(p, stamp)
			}
			return sum, cnt
		}
	}
	sum := 0.0
	cnt := int32(0)
	for _, c := range g.provClaims[g.provClaimStart[p]:g.provClaimStart[p+1]] {
		if e.claimStamp[c] == stamp {
			//lint:ignore kflint/floatsum one provenance's partial over its compiled CSR claim span in ascending ID order — the per-group partial the round driver folds across shards with csr.Pairwise; addition order is identical across runs.
			sum += e.claimProb[c]
			cnt++
		}
	}
	if int(cnt) > e.cfg.SampleL {
		return e.sampleProbsSum(p, stamp)
	}
	return sum, cnt
}

// sampleProbsSum is stage II's L sampling: a deterministic reservoir over
// one provenance's scored probabilities, in compiled claim order. Returns
// the reservoir's sum and size.
func (e *engine) sampleProbsSum(p, stamp int32) (float64, int32) {
	g := e.g
	src := randx.New(e.cfg.SampleSeed ^ int64(kb.StringHash(g.provKeys[p])))
	r := randx.NewReservoir[float64](e.cfg.SampleL, src)
	for _, c := range g.provClaims[g.provClaimStart[p]:g.provClaimStart[p+1]] {
		if e.claimStamp[c] == stamp {
			r.Add(e.claimProb[c])
		}
	}
	sum := 0.0
	for _, v := range r.Items() {
		//lint:ignore kflint/floatsum the reservoir holds at most SampleL values in an order fixed by the per-provenance seed; the sum is tiny and bit-identical across runs.
		sum += v
	}
	return sum, int32(len(r.Items()))
}

// accClampLo/Hi bound every provenance accuracy before it enters a log-odds
// term: they feed mathx.LogOddsSlice here and clampAcc in the reference
// engine, so the two clamp identically.
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

// hashUnit maps strings to a deterministic value in [0,1).
func hashUnit(parts ...string) float64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

// sampleKey is a triple's part of the gold-sampling hash: its encoding with a
// zero object folded onto +0, as the interning tables fold it
// (csr.HashTriple), so a claim samples alike whichever sign of zero its
// triple was first interned with.
func sampleKey(t kb.Triple) string {
	if t.Object.Num == 0 {
		t.Object.Num = 0
	}
	return t.Encode()
}
