package eval

import (
	"kfusion/internal/kb"
)

// SoftGold implements the paper's §5.7 future direction: relaxing the local
// closed-world assumption by attaching a confidence to each negative label.
// "One possible solution is to associate a confidence with each ground truth
// in the gold standard; the confidence can be associated with the
// functionality of the predicate."
//
// Positive labels (triple present in the trusted KB) keep confidence 1.
// Negative labels (item known, value absent) get confidence 1/degree(p):
// for a functional predicate the KB's single value really does refute other
// values; for a highly multi-valued predicate the absent value may simply be
// missing, so the negative evidence is weak.
type SoftGold struct {
	gold *GoldStandard
	// degree maps predicates to their (expected) number of true values.
	degree func(kb.PredicateID) float64
}

// NewSoftGold wraps a gold standard with a per-predicate functionality
// degree: a degree learned from a fusion result, or the schema's
// cardinality. A degree below 1 counts as 1.
func NewSoftGold(gold *GoldStandard, degree func(kb.PredicateID) float64) *SoftGold {
	return &SoftGold{gold: gold, degree: degree}
}

// Label returns the LCWA label, its confidence in [0,1], and whether the
// triple is labeled at all.
func (s *SoftGold) Label(t kb.Triple) (label bool, confidence float64, ok bool) {
	label, ok = s.gold.Label(t)
	if !ok {
		return false, 0, false
	}
	if label {
		return true, 1, true
	}
	d := s.degree(t.Predicate)
	if d < 1 {
		d = 1
	}
	return false, 1 / d, true
}

// WeightedPrediction pairs a prediction with a label confidence.
type WeightedPrediction struct {
	Prob       float64
	Label      bool
	Confidence float64
}

// WeightedPredictions labels a fused result under the soft gold standard.
func WeightedPredictions(triples []kb.Triple, probs []float64, s *SoftGold) []WeightedPrediction {
	out := make([]WeightedPrediction, 0, len(triples))
	for i, t := range triples {
		label, conf, ok := s.Label(t)
		if !ok {
			continue
		}
		out = append(out, WeightedPrediction{Prob: probs[i], Label: label, Confidence: conf})
	}
	return out
}

// WeightedDeviation computes the confidence-weighted calibration loss: each
// prediction's squared error is weighted by its label confidence, so
// conflicts with uncertain negatives (absent values of multi-valued
// predicates) incur a lower penalty — the paper's "lower penalty for
// conflicts with uncertain ground truths".
func WeightedDeviation(preds []WeightedPrediction, buckets int) float64 {
	if buckets < 1 {
		buckets = 1
	}
	type agg struct {
		wSum, pSum, realSum float64
	}
	bs := make([]agg, buckets+1)
	idxOf := func(p float64) int {
		if p >= 1 {
			return buckets
		}
		i := int(p * float64(buckets))
		if i < 0 {
			i = 0
		}
		if i >= buckets {
			i = buckets - 1
		}
		return i
	}
	for _, p := range preds {
		b := &bs[idxOf(p.Prob)]
		b.wSum += p.Confidence
		b.pSum += p.Confidence * p.Prob
		y := 0.0
		if p.Label {
			y = 1
		}
		b.realSum += p.Confidence * y
	}
	num, den := 0.0, 0.0
	for _, b := range bs {
		if b.wSum == 0 {
			continue
		}
		d := b.pSum/b.wSum - b.realSum/b.wSum
		num += b.wSum * d * d
		den += b.wSum
	}
	if den == 0 {
		return 0
	}
	return num / den
}
