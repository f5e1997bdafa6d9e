package fusion

import (
	"math"

	"kfusion/internal/kb"
	"kfusion/internal/randx"
)

// This file is the golden oracle the compiled engine (engine.go + compile.go)
// is regression-tested against, and the "before" subject of the
// compiled ÷ reference ratio test: the three stages of Figure 8 written the
// way the paper states them, every round regrouping all claims by value-typed
// keys — stage I by data item, stage II by provenance string, stage III by
// triple — and scoring them with the seed engine's scalar expressions and
// reservoir seeds. Each stage is one groupBy and a loop over its groups.
// groupBy delivers the groups in the order of the seed engine's 32-partition
// shuffle, because values depend on it: stage I's group order is the order
// stage II sums and samples a provenance's probabilities in, so it decides
// low-order bits — which a provenance sitting exactly on AccuracyThreshold
// turns into a filter decision (POPACCU+ on the bench dataset has one) — and
// which SampleL claims an oversampled provenance keeps. Every number this
// oracle ever produced is therefore the number it produces now.

// provState tracks one provenance's estimated accuracy across rounds.
type provState struct {
	acc float64
	// isDefault is true while the accuracy is still the unevaluated
	// default; the coverage filter drops such provenances in later rounds.
	isDefault bool
}

// probEntry is Stage I's output: a scored claim.
type probEntry struct {
	idx  int32
	prob float64
}

// refEngine holds the immutable claim set and the evolving per-provenance
// state for one reference fusion run.
type refEngine struct {
	cfg    Config
	claims []Claim
	provs  map[string]*provState
	// itemTotal counts all claims per data item (pre-filtering), reported
	// as FusedTriple.ItemProvenances.
	itemTotal map[kb.DataItem]int
}

// FuseReference runs the reference engine: the literal three-stage pipeline,
// regrouping all claims every round, sequentially (it ignores cfg.Workers).
// It computes the same result as Fuse (to within floating-point summation
// order) and exists so tests can prove the compiled engine's equivalence.
// Production callers should use Fuse.
//
// One approximation boundary is not bit-pinned between the engines: when a
// single provenance accumulates more than SampleL scored claims, stage II's
// reservoir consumes the probabilities in stage I's emission order here (item
// by item, items in shuffle order) but in compiled claim order in Fuse, so
// the two (equally deterministic, equally sized) samples can differ.
// Item-level SampleL sampling is identical in both engines. Exactness is not
// required at this boundary — both estimates are means of uniform
// SampleL-sized samples of the same scored-probability multiset, so they
// concentrate around the same full mean with sampling error O(spread/√L) —
// and TestStageIIOversampleDivergenceBounded bounds the resulting drift.
func FuseReference(claims []Claim, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 1e-4
	}
	e := &refEngine{
		cfg:       cfg,
		claims:    claims,
		provs:     make(map[string]*provState),
		itemTotal: make(map[kb.DataItem]int),
	}
	for _, c := range claims {
		e.itemTotal[c.Triple.Item()]++
		if _, ok := e.provs[c.Prov]; !ok {
			e.provs[c.Prov] = &provState{acc: cfg.DefaultAccuracy, isDefault: true}
		}
	}
	if cfg.GoldLabeler != nil {
		e.initFromGold()
	}

	var lastProbs []probEntry
	rounds := 0
	if cfg.Method == Vote {
		lastProbs = e.stageI(0)
		rounds = 1
	} else {
		// The paper forces termination after R rounds.
		for rounds < cfg.Rounds {
			lastProbs = e.stageI(rounds)
			rounds++
			if e.stageII(lastProbs) < cfg.Epsilon {
				break
			}
		}
	}

	res := e.stageIII(lastProbs)
	res.Rounds = rounds
	res.ProvAccuracy = make(map[string]float64, len(e.provs))
	for p, st := range e.provs {
		res.ProvAccuracy[p] = st.acc
	}
	return res, nil
}

// initFromGold implements §4.3.3: initialize each provenance's accuracy as
// the fraction of its gold-labeled claims that are true, at the configured
// label sampling rate. Provenances with no labeled claims keep the default.
func (e *refEngine) initFromGold() {
	rate := e.cfg.GoldSampleRate
	if rate == 0 {
		rate = 1
	}
	trueN := make(map[string]int)
	labeled := make(map[string]int)
	for _, c := range e.claims {
		label, ok := e.cfg.GoldLabeler(c.Triple)
		if !ok {
			continue
		}
		if rate < 1 {
			// Deterministic per (prov, triple) sampling so runs with the
			// same rate see the same label subset.
			if hashUnit(c.Prov, sampleKey(c.Triple)) >= rate {
				continue
			}
		}
		labeled[c.Prov]++
		if label {
			trueN[c.Prov]++
		}
	}
	//lint:ignore kflint/mapiter each key writes only its own provenance's state through the pointer, and clampAcc is a pure function of that key's counts — disjoint per-key effects commute.
	for prov, n := range labeled {
		st := e.provs[prov]
		st.acc = clampAcc(float64(trueN[prov]) / float64(n))
		st.isDefault = false
	}
}

// refPartitions is the seed shuffle's partition count.
const refPartitions = 32

// groupBy groups the values kv yields for 0..n-1 by their keys. A key's
// values are in input order; keys are in shuffle order — by partition
// (hash % refPartitions), within a partition by first occurrence.
func groupBy[K comparable, V any](n int, hash func(K) uint64, kv func(i int) (K, V)) ([]K, map[K][]V) {
	var parts [refPartitions][]K
	groups := make(map[K][]V)
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if _, ok := groups[k]; !ok {
			p := hash(k) % refPartitions
			parts[p] = append(parts[p], k)
		}
		groups[k] = append(groups[k], v)
	}
	keys := make([]K, 0, len(groups))
	for _, part := range parts {
		keys = append(keys, part...)
	}
	return keys, groups
}

// stageI groups claims by data item and computes triple probabilities with
// the current provenance accuracies (Figure 8, Stage I).
func (e *refEngine) stageI(round int) []probEntry {
	itemHash := func(d kb.DataItem) uint64 { return kb.StringHash(d.String()) }
	items, claimsOf := groupBy(len(e.claims), itemHash, func(i int) (kb.DataItem, int32) {
		return e.claims[i].Triple.Item(), int32(i)
	})
	var out []probEntry
	emit := func(pe probEntry) { out = append(out, pe) }
	for _, item := range items {
		e.scoreItem(item, claimsOf[item], round, emit)
	}
	return out
}

// scoreItem computes the probability of each candidate triple of one data
// item and emits one probEntry per surviving claim.
func (e *refEngine) scoreItem(item kb.DataItem, idxs []int32, round int, emit func(probEntry)) {
	idxs = e.sampleClaims(item.String(), idxs)

	// Coverage filter (§4.3.2): in round 0, only score items where some
	// triple has >= 2 provenances; later, drop provenances still at the
	// default accuracy.
	if e.cfg.FilterByCoverage {
		if round == 0 {
			counts := make(map[kb.Triple]int)
			maxN := 0
			for _, i := range idxs {
				counts[e.claims[i].Triple]++
				if counts[e.claims[i].Triple] > maxN {
					maxN = counts[e.claims[i].Triple]
				}
			}
			if maxN < 2 {
				return
			}
		} else {
			kept := idxs[:0:len(idxs)]
			for _, i := range idxs {
				if !e.provs[e.claims[i].Prov].isDefault {
					kept = append(kept, i)
				}
			}
			idxs = kept
			if len(idxs) == 0 {
				return
			}
		}
	}

	// Accuracy filter (θ): drop low-accuracy provenances; if the item loses
	// everything, fall back to the mean provenance accuracy per triple.
	scored := idxs
	if θ := e.cfg.AccuracyThreshold; θ > 0 {
		kept := make([]int32, 0, len(idxs))
		for _, i := range idxs {
			if e.provs[e.claims[i].Prov].acc >= θ {
				kept = append(kept, i)
			}
		}
		if len(kept) == 0 {
			// Fallback: p(T) = mean accuracy of T's provenances. Groups are
			// emitted in first-occurrence order — the seed ranged over the
			// map here, leaving the emission order (and thus downstream
			// floating-point summation order) randomized per run; a golden
			// oracle must be deterministic.
			byTriple := make(map[kb.Triple][]int32)
			var order []kb.Triple
			for _, i := range idxs {
				t := e.claims[i].Triple
				if _, ok := byTriple[t]; !ok {
					order = append(order, t)
				}
				byTriple[t] = append(byTriple[t], i)
			}
			for _, t := range order {
				group := byTriple[t]
				sum := 0.0
				for _, i := range group {
					sum += e.provs[e.claims[i].Prov].acc
				}
				p := sum / float64(len(group))
				for _, i := range group {
					emit(probEntry{idx: i, prob: p})
				}
			}
			return
		}
		scored = kept
	}

	probs := e.itemProbabilities(scored)
	for _, i := range scored {
		emit(probEntry{idx: i, prob: probs[e.claims[i].Triple]})
	}
}

// itemProbabilities runs the configured method over one item's claims.
func (e *refEngine) itemProbabilities(idxs []int32) map[kb.Triple]float64 {
	counts := make(map[kb.Triple]int)
	order := make([]kb.Triple, 0, 4)
	for _, i := range idxs {
		t := e.claims[i].Triple
		if counts[t] == 0 {
			order = append(order, t)
		}
		counts[t]++
	}
	n := len(idxs)
	out := make(map[kb.Triple]float64, len(order))

	switch e.cfg.Method {
	case Vote:
		for _, t := range order {
			out[t] = float64(counts[t]) / float64(n)
		}
	case Accu:
		scores := make([]float64, len(order))
		for vi, t := range order {
			s := 0.0
			for _, i := range idxs {
				if e.claims[i].Triple != t {
					continue
				}
				a := e.claimAccuracy(i)
				//lint:ignore kflint/scalarmath reference spec: the inline scalar log is the golden expression the compiled engine's batched LogOddsSlice pass is measured against.
				s += math.Log(float64(e.cfg.NFalse) * a / (1 - a))
			}
			scores[vi] = s
		}
		// The denominator includes the N - |V| unobserved false values,
		// each with vote score 0 — this is what keeps single-claim items
		// below probability 1.
		unknown := float64(e.cfg.NFalse - len(order))
		if unknown < 0 {
			unknown = 0
		}
		softmaxInto(out, order, scores, unknown)
	case PopAccu:
		// POPACCU replaces ACCU's uniform false-value distribution with the
		// popularity observed in the data: q(v) = n(v)/n. A claim on a
		// popular value earns a smaller boost than a claim on a rare one,
		// which is what makes POPACCU robust to copied (popular) false
		// values — they "may be considered as popular false values" [14].
		probs := make([]float64, len(order))
		scores := make([]float64, len(order))
		for vi, t := range order {
			q := float64(counts[t]) / float64(n)
			s := 0.0
			for _, i := range idxs {
				if e.claims[i].Triple != t {
					continue
				}
				a := e.claimAccuracy(i)
				//lint:ignore kflint/scalarmath reference spec: the scalar POPACCU vote term is the golden expression the compiled engine's table-driven form is measured against.
				s += math.Log(a / ((1 - a) * q))
			}
			scores[vi] = s
		}
		// One unit of unknown-value mass: a single-claim item with the
		// default accuracy 0.8 lands exactly at probability 0.8 — the
		// mechanism behind Figure 9's calibration valleys.
		softmaxSlice(probs, scores, 1)
		for vi, t := range order {
			out[t] = probs[vi]
		}
	}
	return out
}

// stageII re-estimates provenance accuracies as the mean probability of
// their claims (Figure 8, Stage II) and returns the largest accuracy change.
func (e *refEngine) stageII(entries []probEntry) float64 {
	provs, probsOf := groupBy(len(entries), kb.StringHash, func(i int) (string, float64) {
		return e.claims[entries[i].idx].Prov, entries[i].prob
	})
	maxDelta := 0.0
	for _, prov := range provs {
		probs := e.sampleProbs(prov, probsOf[prov])
		sum := 0.0
		for _, p := range probs {
			// groupBy delivers a provenance's probabilities in stage I's
			// emission order (items in shuffle order, an item's claims in
			// input order), so the naive sum is reproducible.
			sum += p
		}
		acc := sum / float64(len(probs))
		st := e.provs[prov]
		if d := math.Abs(st.acc - acc); d > maxDelta {
			maxDelta = d
		}
		st.acc = acc
		st.isDefault = false
	}
	return maxDelta
}

// stageIII deduplicates claims into unique fused triples (Figure 8, Stage
// III).
func (e *refEngine) stageIII(entries []probEntry) *Result {
	probByIdx := make(map[int32]float64, len(entries))
	for _, pe := range entries {
		probByIdx[pe.idx] = pe.prob
	}
	triples, claimsOf := groupBy(len(e.claims), kb.Triple.Hash, func(i int) (kb.Triple, int32) {
		return e.claims[i].Triple, int32(i)
	})
	res := &Result{Triples: make([]FusedTriple, 0, len(triples))}
	for _, t := range triples {
		idxs := claimsOf[t]
		f := FusedTriple{
			Triple:          t,
			Probability:     -1,
			Provenances:     len(idxs),
			ItemProvenances: e.itemTotal[t.Item()],
		}
		exts := make(map[string]bool)
		for _, i := range idxs {
			exts[e.claims[i].Extractor] = true
			if p, ok := probByIdx[i]; ok {
				f.Probability = p
				f.Predicted = true
			}
		}
		f.Extractors = len(exts)
		if !f.Predicted {
			res.Unpredicted++
		}
		res.Triples = append(res.Triples, f)
	}
	return res
}

// sampleClaims caps a reducer's claim list at SampleL with a deterministic
// reservoir (the paper's L sampling).
func (e *refEngine) sampleClaims(key string, idxs []int32) []int32 {
	if len(idxs) <= e.cfg.SampleL {
		return idxs
	}
	src := randx.New(int64(kb.StringHash(key)))
	r := randx.NewReservoir[int32](e.cfg.SampleL, src)
	for _, i := range idxs {
		r.Add(i)
	}
	return append([]int32(nil), r.Items()...)
}

func (e *refEngine) sampleProbs(key string, probs []float64) []float64 {
	if len(probs) <= e.cfg.SampleL {
		return probs
	}
	src := randx.New(int64(kb.StringHash(key)))
	r := randx.NewReservoir[float64](e.cfg.SampleL, src)
	for _, p := range probs {
		r.Add(p)
	}
	return r.Items()
}

// claimAccuracy returns the effective accuracy for one claim: its
// provenance's accuracy, clamped.
func (e *refEngine) claimAccuracy(i int32) float64 {
	return clampAcc(e.provs[e.claims[i].Prov].acc)
}

// softmaxInto computes P(v) = exp(s_v) / (Σ exp(s) + unknownMass·exp(0)),
// shifted for stability.
func softmaxInto(out map[kb.Triple]float64, order []kb.Triple, scores []float64, unknownMass float64) {
	probs := make([]float64, len(scores))
	softmaxSlice(probs, scores, unknownMass)
	for vi, t := range order {
		out[t] = probs[vi]
	}
}

func softmaxSlice(probs, scores []float64, unknownMass float64) {
	m := 0.0 // the implicit unknown-value score is 0
	for _, s := range scores {
		if s > m {
			m = s
		}
	}
	denom := unknownMass * math.Exp(-m)
	for _, s := range scores {
		//lint:ignore kflint/floatsum per-item softmax over one data item's candidate values — a handful of terms in fixed candidate order, not a corpus-scale reduction.
		denom += math.Exp(s - m) //lint:ignore kflint/scalarmath reference spec: the two-pass scalar softmax is the golden form mathx.SoftmaxInto is pinned bit-identical to.
	}
	for i, s := range scores {
		//lint:ignore kflint/scalarmath reference spec: same golden two-pass softmax as the denominator above.
		probs[i] = math.Exp(s-m) / denom
	}
}
