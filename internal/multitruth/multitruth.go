// Package multitruth implements the paper's §5.3 future direction: handling
// non-functional predicates with a latent truth model in the style of Zhao
// et al. (PVLDB 2012). Instead of a single-truth softmax per data item, each
// candidate triple carries an independent Bernoulli truth variable, and each
// provenance is described by its sensitivity (probability of claiming a true
// triple it has the chance to claim) and specificity (probability of NOT
// claiming a false one). The model therefore can assign high probability to
// several values of one data item — exactly what the single-truth models
// cannot do, and the cause of 65% of their false negatives (Figure 17).
//
// The model runs over the fusion package's compiled claim graph
// (fusion.Compiled): FuseCompiled consumes an existing compilation — so the
// experiment layer's one interned graph serves the single-truth methods and
// this model alike — and Fuse is the compile-then-fuse convenience.
package multitruth

import (
	"fmt"
	"math"
	"runtime"

	"kfusion/internal/csr"
	"kfusion/internal/fusion"
	"kfusion/internal/mathx"
)

// Config parameterizes the latent truth model.
type Config struct {
	// Rounds is the EM round cap.
	Rounds int
	// PriorTrue is the prior probability that a candidate triple is true.
	PriorTrue float64
	// InitSens and InitSpec initialize provenance sensitivity/specificity.
	InitSens float64
	InitSpec float64
	// Smoothing is the Beta pseudo-count used in the M-step.
	Smoothing float64
	// Workers bounds the E-step parallelism (0 = auto). It never affects
	// results.
	Workers int
}

// DefaultConfig returns the configuration used in the ablation experiments.
func DefaultConfig() Config {
	return Config{Rounds: 5, PriorTrue: 0.35, InitSens: 0.7, InitSpec: 0.9, Smoothing: 1}
}

// Validate reports configuration errors. Range checks are written so that
// NaN fails them.
func (c Config) Validate() error {
	if c.Rounds < 1 {
		return fmt.Errorf("multitruth: Rounds must be >= 1, got %d", c.Rounds)
	}
	if !(c.PriorTrue > 0 && c.PriorTrue < 1) {
		return fmt.Errorf("multitruth: PriorTrue must be in (0,1), got %v", c.PriorTrue)
	}
	if !(c.InitSens > 0 && c.InitSens < 1 && c.InitSpec > 0 && c.InitSpec < 1) {
		return fmt.Errorf("multitruth: InitSens/InitSpec must be in (0,1)")
	}
	if !(c.Smoothing >= 0) {
		return fmt.Errorf("multitruth: Smoothing must be >= 0, got %v", c.Smoothing)
	}
	return nil
}

// Fuse runs the latent truth model over claims and returns independent
// per-triple probabilities (they do NOT sum to 1 within a data item). It is
// the compile-then-fuse convenience around FuseCompiled.
func Fuse(claims []fusion.Claim, cfg Config) (*fusion.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := fusion.CompileWorkers(claims, cfg.Workers, 0)
	if err != nil {
		return nil, err
	}
	return FuseCompiled(c, cfg)
}

// MustFuse is Fuse for statically-valid configurations.
func MustFuse(claims []fusion.Claim, cfg Config) *fusion.Result {
	r, err := Fuse(claims, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// FuseCompiled runs the latent truth model over an already-compiled claim
// graph, sharing the compilation with any other fusion runs on the same
// claim set. Results are deterministic and independent of cfg.Workers: every
// log-odds and pseudo-count accumulation runs in the graph's fixed
// claim-index order.
func FuseCompiled(c *fusion.Compiled, cfg Config) (*fusion.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nItems, nTriples, nProvs := c.NumItems(), c.NumTriples(), c.NumProvenances()

	// Distinct claimer provenances per triple and distinct seer provenances
	// per item, both in claim-index order of first use, deduplicated with an
	// epoch-stamped scratch over prov IDs — O(claims), never O(claims ×
	// provenances) even on hot items.
	seen := make([]int32, nProvs)
	epoch := int32(0)
	distinct := func(claimIDs []int32) []int32 {
		epoch++
		provs := make([]int32, 0, min(len(claimIDs), 8))
		for _, cl := range claimIDs {
			if p := c.ClaimProv(cl); seen[p] != epoch {
				seen[p] = epoch
				provs = append(provs, p)
			}
		}
		return provs
	}
	tripleProvs := make([][]int32, nTriples)
	for t := 0; t < nTriples; t++ {
		tripleProvs[t] = distinct(c.TripleClaims(t))
	}
	itemProvs := make([][]int32, nItems)
	for i := 0; i < nItems; i++ {
		itemProvs[i] = distinct(c.ItemClaims(i))
	}

	sens := make([]float64, nProvs)
	spec := make([]float64, nProvs)
	for p := range sens {
		sens[p] = cfg.InitSens
		spec[p] = cfg.InitSpec
	}
	probs := make([]float64, nTriples)
	logPrior := math.Log(cfg.PriorTrue) - math.Log(1-cfg.PriorTrue)

	// E-step: per-triple posterior under the current provenance parameters.
	// Items are independent and each triple belongs to exactly one item, so
	// the item loop parallelizes without races; per-triple log-odds sum in
	// seer order, which is fixed by the graph. Items are numbered in
	// first-occurrence order, so the claim-heavy ones come first: the loop
	// hands its chunks to whichever worker is free (csr.ParallelChunks), and
	// no result depends on which worker drew which. "Did this seer claim
	// this triple" is answered by a per-worker scratch stamped with the
	// (globally unique) triple ID — O(claimers + seers) per triple, and no
	// stale stamp can match another triple. The per-provenance
	// claim/no-claim likelihood ratios are batched into per-round tables
	// (one kernel pass over staging buffers) instead of four transcendentals
	// per seer incidence — the same expressions, evaluated once each.
	hitLR := make([]float64, nProvs)  // log(sens) - log(1-spec)
	missLR := make([]float64, nProvs) // log(1-sens) - log(spec)
	oneMinusSens := make([]float64, nProvs)
	oneMinusSpec := make([]float64, nProvs)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stamps := make([][]int32, workers) // per worker, made on its first chunk
	eStep := func() {
		for p := range sens {
			oneMinusSens[p] = 1 - sens[p]
			oneMinusSpec[p] = 1 - spec[p]
		}
		mathx.LogRatioSlice(hitLR, sens, oneMinusSpec)
		mathx.LogRatioSlice(missLR, oneMinusSens, spec)
		csr.ParallelChunks(nItems, workers, func(w, lo, hi int) {
			claimed := stamps[w]
			if claimed == nil {
				claimed = make([]int32, nProvs) // stamp: triple ID + 1
				stamps[w] = claimed
			}
			for i := lo; i < hi; i++ {
				for _, t := range c.ItemTriples(i) {
					for _, p := range tripleProvs[t] {
						claimed[p] = t + 1
					}
					logOdds := logPrior
					for _, p := range itemProvs[i] {
						if claimed[p] == t+1 {
							logOdds += hitLR[p]
						} else {
							logOdds += missLR[p]
						}
					}
					probs[t] = mathx.Sigmoid(logOdds)
				}
			}
		})
	}

	// M-step: re-estimate sensitivity/specificity from the posteriors, with
	// Beta smoothing anchored at the INITIAL values: provenances with little
	// evidence keep their priors instead of collapsing toward 0.5 and losing
	// all discrimination. The specificity prior is much stronger (as in Zhao
	// et al.): the universe of false triples is vast and sources rarely
	// claim them, so the few observed false candidates must not drag spec
	// down.
	mStep := func() float64 {
		claimedTrue := make([]float64, nProvs)
		sawTrue := make([]float64, nProvs)
		unclaimedFalse := make([]float64, nProvs)
		sawFalse := make([]float64, nProvs)
		claimed := make([]int32, nProvs) // stamp: triple ID + 1
		for i := 0; i < nItems; i++ {
			for _, t := range c.ItemTriples(i) {
				for _, p := range tripleProvs[t] {
					claimed[p] = t + 1
				}
				pt := probs[t]
				for _, p := range itemProvs[i] {
					sawTrue[p] += pt
					sawFalse[p] += 1 - pt
					if claimed[p] == t+1 {
						claimedTrue[p] += pt
					} else {
						unclaimedFalse[p] += 1 - pt
					}
				}
			}
		}
		// Rounded here: a compiler may fuse a product into an add that
		// reads it statements later (sawFalse[p] + sSpec).
		sSens := float64(cfg.Smoothing * 2)
		sSpec := float64(cfg.Smoothing * 10)
		maxDelta := 0.0
		for p := 0; p < nProvs; p++ {
			newSens := clamp01((claimedTrue[p] + float64(sSens*cfg.InitSens)) / (sawTrue[p] + sSens))
			newSpec := clamp01((unclaimedFalse[p] + float64(sSpec*cfg.InitSpec)) / (sawFalse[p] + sSpec))
			if d := math.Abs(newSens - sens[p]); d > maxDelta {
				maxDelta = d
			}
			if d := math.Abs(newSpec - spec[p]); d > maxDelta {
				maxDelta = d
			}
			sens[p], spec[p] = newSens, newSpec
		}
		return maxDelta
	}

	rounds := 0
	for rounds < cfg.Rounds {
		eStep()
		rounds++
		if mStep() < 1e-4 {
			break
		}
	}
	eStep() // final probabilities under converged parameters

	res := &fusion.Result{Rounds: rounds, ProvAccuracy: make(map[string]float64, nProvs)}
	for p := 0; p < nProvs; p++ {
		res.ProvAccuracy[c.ProvKey(p)] = sens[p] // report sensitivity as the headline quality
	}
	res.Triples = make([]fusion.FusedTriple, 0, nTriples)
	for i := 0; i < nItems; i++ {
		itemClaims := len(c.ItemClaims(i))
		for _, t := range c.ItemTriples(i) {
			res.Triples = append(res.Triples, fusion.FusedTriple{
				Triple:          c.Triple(int(t)),
				Probability:     probs[t],
				Predicted:       true,
				Provenances:     len(tripleProvs[t]),
				ItemProvenances: itemClaims,
				// As in the seed model, "extractors" are the distinct
				// claiming provenances — the LTM has no extractor axis.
				Extractors: len(tripleProvs[t]),
			})
		}
	}
	return res, nil
}

// MustFuseCompiled is FuseCompiled for statically-valid configurations.
func MustFuseCompiled(c *fusion.Compiled, cfg Config) *fusion.Result {
	r, err := FuseCompiled(c, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func clamp01(v float64) float64 {
	const lo, hi = 0.01, 0.99
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
