// Package mathx provides the batched float64 kernels of the EM hot loops:
// log, log-odds, log-ratio and softmax over contiguous slices, plus the
// scalar sigmoid and miss log-ratio the engines share.
//
// Every kernel evaluates math.Exp / math.Log per lane — bit-identical to
// the scalar calls the engines used to make inline — but restructured so a
// whole table or span is processed in one pass with every branch hoisted
// out of the loop. That shape is what makes the hot loops batchable at all:
// the per-round tables (provenance log-score terms, extractor likelihood
// ratios, source log-weights) become single kernel calls over staging
// buffers reused across rounds, and the per-item softmax pays one exp per
// candidate instead of two. The kernels are pure elementwise (or, for a
// softmax, fixed-order) functions: results never depend on how a caller
// chunks a slice across workers, which is what keeps the engines'
// bit-identical-for-any-Workers contract intact.
package mathx

import "math"

// LogSlice writes dst[i] = math.Log(x[i]).
func LogSlice(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Log(v)
	}
}

// LogOddsSlice writes dst[i] = math.Log(nf * a/(1-a)) with a = acc[i]
// clamped to [lo, hi]. The expression is evaluated exactly as the engines'
// scalar form (nf*a/(1-a) then one log), so the kernel is bit-identical
// to the historical per-element code.
func LogOddsSlice(dst, acc []float64, nf, lo, hi float64) {
	dst = dst[:len(acc)]
	for i, a := range acc {
		if a < lo {
			a = lo
		} else if a > hi {
			a = hi
		}
		dst[i] = math.Log(nf * a / (1 - a))
	}
}

// LogRatioSlice writes dst[i] = math.Log(num[i]) - math.Log(den[i]).
func LogRatioSlice(dst, num, den []float64) {
	dst = dst[:len(num)]
	den = den[:len(num)]
	for i, v := range num {
		dst[i] = math.Log(v) - math.Log(den[i])
	}
}

// Sigmoid is the scalar logistic function in the overflow-safe two-branch
// form — the one implementation the engines share (the twolayer and
// multitruth copies consolidated here).
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// MissLogRatio is the layer-1 log-likelihood ratio of an extractor NOT
// extracting a statement it processed the source for:
// log(1-recall) - log(1-falsePos). Consolidated here from the twolayer
// engine; its round driver evaluates the same expression over global rates
// to build each shard's ghost-miss table.
func MissLogRatio(recall, falsePos float64) float64 {
	return math.Log(1-recall) - math.Log(1-falsePos)
}

// SoftmaxInto writes dst[i] = exp(scores[i]-m)/denom over the candidate
// scores, with an implicit extra candidate at score 0 carrying extraMass
// weight: m = max(0, max(scores)), denom = extraMass*exp(-m) + Σ_i
// exp(scores[i]-m), the sum in slice order. This is the engines' max-
// subtraction softmax with the double exp eliminated — each lane's exp is
// computed once, kept, and divided by the denominator it contributed to, so
// the result is bit-identical to the historical two-pass form. A score of
// -Inf marks an absent candidate: its lane contributes exp(-Inf) = 0 to the
// denominator and gets probability 0, which is how callers softmax a fixed-
// width buffer without branching on presence in the loop.
func SoftmaxInto(dst, scores []float64, extraMass float64) {
	dst = dst[:len(scores)]
	if len(scores) == 1 {
		// Single candidate: one of the two exps is exp(±0) = 1 exactly
		// (the lane's when s is the max, the extra mass's when 0 is), so
		// the general path below reduces to these expressions bit for bit
		// with one exp instead of two. Zipf-shaped corpora put a large
		// fraction of items here.
		if s := scores[0]; s > 0 {
			dst[0] = 1 / (extraMass*math.Exp(-s) + 1)
		} else {
			v := math.Exp(s)
			dst[0] = v / (extraMass + v)
		}
		return
	}
	m := 0.0 // the implicit extra-candidate score is 0
	for _, s := range scores {
		if s > m {
			m = s
		}
	}
	denom := extraMass * math.Exp(-m)
	for i, s := range scores {
		v := math.Exp(s - m)
		dst[i] = v
		//lint:ignore kflint/floatsum one candidate list's softmax denominator in fixed slice order — the per-group partial every caller owns whole; identical order across runs.
		denom += v
	}
	for i := range dst {
		dst[i] /= denom
	}
}
