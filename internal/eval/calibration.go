package eval

import (
	"fmt"
	"sort"
	"strings"
)

// Prediction pairs a predicted probability with a gold label; calibration
// and PR evaluation run over labeled triples only.
type Prediction struct {
	Prob  float64
	Label bool
}

// CalBucket is one calibration bucket.
type CalBucket struct {
	// Lo and Hi bound the predicted-probability range [Lo, Hi).
	Lo, Hi float64
	// MeanPred is the mean predicted probability in the bucket.
	MeanPred float64
	// Real is the fraction of bucket triples that are actually true.
	Real float64
	// N is the number of predictions in the bucket.
	N int
}

// CalibrationCurve is the paper's predicted-vs-real probability plot: l
// equal-width buckets over [0,1) plus a final bucket holding predictions of
// exactly 1 (§4.2 uses l = 20).
type CalibrationCurve struct {
	Buckets []CalBucket
}

// Calibration buckets the predictions. l must be >= 1.
func Calibration(preds []Prediction, l int) CalibrationCurve {
	if l < 1 {
		l = 1
	}
	sums := make([]float64, l+1)
	hits := make([]int, l+1)
	counts := make([]int, l+1)
	for _, p := range preds {
		idx := l // the ==1 bucket
		if p.Prob < 1 {
			idx = int(p.Prob * float64(l))
			if idx < 0 {
				idx = 0
			}
			if idx >= l {
				idx = l - 1
			}
		}
		counts[idx]++
		sums[idx] += p.Prob
		if p.Label {
			hits[idx]++
		}
	}
	curve := CalibrationCurve{Buckets: make([]CalBucket, l+1)}
	for i := range curve.Buckets {
		b := CalBucket{
			Lo: float64(i) / float64(l),
			Hi: float64(i+1) / float64(l),
			N:  counts[i],
		}
		if i == l {
			b.Lo, b.Hi = 1, 1
		}
		if counts[i] > 0 {
			b.MeanPred = sums[i] / float64(counts[i])
			b.Real = float64(hits[i]) / float64(counts[i])
		}
		curve.Buckets[i] = b
	}
	return curve
}

// Deviation is the unweighted mean square gap between predicted and real
// probability over the non-empty buckets.
func (c CalibrationCurve) Deviation() float64 {
	sum, n := 0.0, 0
	for _, b := range c.Buckets {
		if b.N == 0 {
			continue
		}
		d := b.MeanPred - b.Real
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WeightedDeviation weighs each bucket by its triple count — the average
// square loss of an individual prediction.
func (c CalibrationCurve) WeightedDeviation() float64 {
	sum, n := 0.0, 0
	for _, b := range c.Buckets {
		if b.N == 0 {
			continue
		}
		d := b.MeanPred - b.Real
		sum += float64(b.N) * d * d
		n += b.N
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders the curve compactly for reports.
func (c CalibrationCurve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pred→real (n): ")
	for _, bk := range c.Buckets {
		if bk.N == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%.2f→%.2f (%d)] ", bk.MeanPred, bk.Real, bk.N)
	}
	return strings.TrimSpace(b.String())
}

// PRPoint is one point of the precision-recall curve.
type PRPoint struct {
	Recall    float64
	Precision float64
	Threshold float64
}

// PRCurve computes precision-recall points over predictions sorted by
// descending probability, one point per distinct threshold.
func PRCurve(preds []Prediction) []PRPoint {
	if len(preds) == 0 {
		return nil
	}
	sorted := append([]Prediction(nil), preds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Prob > sorted[j].Prob })
	totalTrue := 0
	for _, p := range sorted {
		if p.Label {
			totalTrue++
		}
	}
	if totalTrue == 0 {
		return nil
	}
	var out []PRPoint
	tp := 0
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Prob == sorted[i].Prob {
			if sorted[j].Label {
				tp++
			}
			j++
		}
		out = append(out, PRPoint{
			Recall:    float64(tp) / float64(totalTrue),
			Precision: float64(tp) / float64(j),
			Threshold: sorted[i].Prob,
		})
		i = j
	}
	return out
}

// AUCPR integrates the PR curve by trapezoid over recall, anchored at the
// first point's precision for recall 0.
func AUCPR(preds []Prediction) float64 {
	pts := PRCurve(preds)
	if len(pts) == 0 {
		return 0
	}
	area := 0.0
	prevR, prevP := 0.0, pts[0].Precision
	for _, pt := range pts {
		area += (pt.Recall - prevR) * (pt.Precision + prevP) / 2
		prevR, prevP = pt.Recall, pt.Precision
	}
	return area
}

// Monotonicity measures how well the probability ordering separates true
// from false predictions: the probability that a random true triple is
// ranked above a random false one (AUC-ROC flavored; 0.5 = random). Used by
// ablation tests.
func Monotonicity(preds []Prediction) float64 {
	var tp, fp []float64
	for _, p := range preds {
		if p.Label {
			tp = append(tp, p.Prob)
		} else {
			fp = append(fp, p.Prob)
		}
	}
	if len(tp) == 0 || len(fp) == 0 {
		return 0.5
	}
	sort.Float64s(fp)
	wins := 0.0
	for _, v := range tp {
		lo := sort.SearchFloat64s(fp, v)                                  // #false strictly below
		hi := sort.Search(len(fp), func(i int) bool { return fp[i] > v }) // first strictly above
		wins += float64(lo) + 0.5*float64(hi-lo)
	}
	return wins / (float64(len(tp)) * float64(len(fp)))
}

// Distribution returns the fraction of predictions in each of l probability
// buckets (plus the ==1 bucket) — Figure 16's histogram.
func Distribution(probs []float64, l int) []float64 {
	if l < 1 {
		l = 1
	}
	counts := make([]float64, l+1)
	for _, p := range probs {
		idx := l
		if p < 1 {
			idx = int(p * float64(l))
			if idx < 0 {
				idx = 0
			}
			if idx >= l {
				idx = l - 1
			}
		}
		counts[idx]++
	}
	if len(probs) > 0 {
		for i := range counts {
			counts[i] /= float64(len(probs))
		}
	}
	return counts
}
