package exper

import (
	"fmt"

	"kfusion/internal/eval"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// AblationSoftLCWA: does the confidence-weighted gold standard (§5.7) lower
// the penalty for conflicts with uncertain negatives?
func AblationSoftLCWA(ds *Dataset) *Table {
	cfg := fusion.PopAccuPlusConfig(ds.Gold.Labeler())
	res := ds.Fuse("POPACCU+", cfg)

	// Degrees from the label-free learner (no extra supervision). A
	// predicate with no learned degree reads 0, which SoftGold takes as 1.
	degrees := learnDegrees(res)
	soft := eval.NewSoftGold(ds.Gold, func(p kb.PredicateID) float64 { return degrees[p] })

	var triples []kb.Triple
	var probs []float64
	for _, f := range res.Triples {
		if f.Predicted {
			triples = append(triples, f.Triple)
			probs = append(probs, f.Probability)
		}
	}
	wp := eval.WeightedPredictions(triples, probs, soft)
	hard := make([]eval.WeightedPrediction, len(wp))
	copy(hard, wp)
	for i := range hard {
		hard[i].Confidence = 1
	}

	hardDev := eval.WeightedDeviation(hard, 20)
	softDev := eval.WeightedDeviation(wp, 20)

	multi := 0
	for _, d := range degrees {
		if d > 1 {
			multi++
		}
	}

	tb := &Table{ID: "abl-softlcwa", Title: "Ablation: LCWA with label confidence (§5.7)",
		Header: []string{"Gold standard", "Weighted deviation"}}
	tb.AddRow("hard LCWA (all labels confidence 1)", fmt.Sprintf("%.4f", hardDev))
	tb.AddRow("soft LCWA (negatives discounted by functionality)", fmt.Sprintf("%.4f", softDev))
	tb.Notes = append(tb.Notes,
		"paper §5.7: 50% of apparent false positives were LCWA artifacts; soft negatives give them a lower penalty",
		fmt.Sprintf("learned degree > 1 on %d of %d predicates", multi, len(degrees)),
		checkf(softDev <= hardDev+1e-9, "soft labels never increase the measured deviation"))
	return tb
}

// maxLearnedDegree caps a learned functionality degree.
const maxLearnedDegree = 6

// learnDegrees estimates each predicate's functionality degree (§5.3: the
// expected number of true values per data item) from a fusion result, with
// no labels. A data item's expected number of truths is the sum of its
// fused probabilities; a predicate's degree is the mean over its items,
// clamped to [1, maxLearnedDegree]. Unpredicted triples are skipped. Items
// are summed in the order res.Triples first lists them, so no float sum
// follows map iteration order.
func learnDegrees(res *fusion.Result) map[kb.PredicateID]float64 {
	slot := map[kb.DataItem]int{}
	var items []kb.DataItem
	var sums []float64
	for _, f := range res.Triples {
		if !f.Predicted {
			continue
		}
		item := f.Item()
		i, ok := slot[item]
		if !ok {
			i = len(items)
			slot[item] = i
			items = append(items, item)
			sums = append(sums, 0)
		}
		sums[i] += f.Probability
	}
	totals := map[kb.PredicateID]float64{}
	counts := map[kb.PredicateID]int{}
	for i, item := range items {
		totals[item.Predicate] += sums[i]
		counts[item.Predicate]++
	}
	degrees := make(map[kb.PredicateID]float64, len(totals))
	for p, total := range totals {
		degrees[p] = min(max(total/float64(counts[p]), 1), maxLearnedDegree)
	}
	return degrees
}
