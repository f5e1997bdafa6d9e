package exper

import (
	"fmt"
	"sort"

	"kfusion/internal/eval"
	"kfusion/internal/funcdegree"
	"kfusion/internal/fusion"
	"kfusion/internal/hierval"
	"kfusion/internal/kb"
	"kfusion/internal/multitruth"
	"kfusion/internal/twolayer"
)

// Ablations for the §5 future-direction implementations. Each compares the
// refined baseline against one extension on the axis the paper says the
// extension should move.

// evalResult evaluates an arbitrary fusion result (the extensions produce
// fusion.Result too).
func (ds *Dataset) evalResult(name string, res *fusion.Result) eval.Report {
	return eval.Evaluate(name, res, ds.Gold)
}

// AblationTwoLayer: does separating extractor precision from source accuracy
// (§5.1) recover the Figure 18 signal the flat provenance buries?
func AblationTwoLayer(ds *Dataset) *Table {
	base := ds.report("POPACCU", fusion.PopAccuConfig())

	// The two-layer model rides the dataset's shared compiled extraction
	// graph, the way the fusion models ride the shared claim graph.
	cfg := twolayer.DefaultConfig()
	cfg.SiteLevel = true
	two := twolayer.MustFuseCompiled(ds.ExtractionGraph(true), cfg)
	twoRep := ds.evalResult("TWOLAYER", two)

	tb := &Table{ID: "abl-twolayer", Title: "Ablation: two-layer source/extractor model (§5.1)",
		Header: []string{"Model", "Dev", "WDev", "AUC-PR", "N"}}
	addReportRows(tb, []eval.Report{base, twoRep})

	// The targeted signal: among triples both models push above 0.8, how do
	// single-extractor triples fare vs multi-extractor ones?
	strat := func(res *fusion.Result) (single, multi float64, ns, nm int) {
		for _, f := range res.Triples {
			if !f.Predicted || f.Probability < 0.8 {
				continue
			}
			label, ok := ds.Gold.Label(f.Triple)
			if !ok {
				continue
			}
			if f.Extractors <= 1 {
				ns++
				if label {
					single++
				}
			} else {
				nm++
				if label {
					multi++
				}
			}
		}
		if ns > 0 {
			single /= float64(ns)
		}
		if nm > 0 {
			multi /= float64(nm)
		}
		return single, multi, ns, nm
	}
	bs, bm, bns, bnm := strat(ds.Fuse("POPACCU", fusion.PopAccuConfig()))
	ts, tm, tns, tnm := strat(two)
	tb.AddRow("POPACCU confident singles/multi", fmt.Sprintf("%.2f (%d)", bs, bns), fmt.Sprintf("%.2f (%d)", bm, bnm), "", "")
	tb.AddRow("TWOLAYER confident singles/multi", fmt.Sprintf("%.2f (%d)", ts, tns), fmt.Sprintf("%.2f (%d)", tm, tnm), "", "")
	tb.Notes = append(tb.Notes,
		"paper §5.1: flat provenances bury the single-vs-multi extractor signal",
		checkf(tns <= bns || ts >= bs, "two-layer promotes fewer (or truer) single-extractor triples to high confidence"))
	return tb
}

// AblationMultiTruth: does the latent truth model recover multiple truths on
// non-functional predicates (§5.3)?
func AblationMultiTruth(ds *Dataset) *Table {
	// Both models ride the dataset's one compiled claim graph.
	single := ds.Fuse("POPACCU", fusion.PopAccuConfig())
	ltm := multitruth.MustFuseCompiled(ds.Compiled(fusion.GranExtractorURL), multitruth.DefaultConfig())

	// Multi-truth recovery: items with >= 2 gold-true extracted triples
	// where the model assigns >= 0.5 to at least two of them.
	recovered := func(res *fusion.Result) (hit, total int) {
		byItem := map[kb.DataItem][]fusion.FusedTriple{}
		for _, f := range res.Triples {
			if f.Predicted {
				byItem[f.Item()] = append(byItem[f.Item()], f)
			}
		}
		//lint:ignore kflint/mapiter Gold.Label is a pure lookup and the body only bumps integer counters — every visit order yields the same (hit, total).
		for _, fs := range byItem {
			goldTrue, confident := 0, 0
			for _, f := range fs {
				if label, ok := ds.Gold.Label(f.Triple); ok && label {
					goldTrue++
					if f.Probability >= 0.5 {
						confident++
					}
				}
			}
			if goldTrue >= 2 {
				total++
				if confident >= 2 {
					hit++
				}
			}
		}
		return hit, total
	}
	sHit, sTotal := recovered(single)
	mHit, mTotal := recovered(ltm)

	tb := &Table{ID: "abl-multitruth", Title: "Ablation: latent truth model for non-functional predicates (§5.3)",
		Header: []string{"Model", "Multi-truth items recovered", "Monotonicity"}}
	singlePreds, _ := eval.Predictions(single, ds.Gold)
	ltmPreds, _ := eval.Predictions(ltm, ds.Gold)
	tb.AddRow("POPACCU (single truth)", fmt.Sprintf("%d/%d", sHit, sTotal), fmt.Sprintf("%.3f", eval.Monotonicity(singlePreds)))
	tb.AddRow("LTM (multi truth)", fmt.Sprintf("%d/%d", mHit, mTotal), fmt.Sprintf("%.3f", eval.Monotonicity(ltmPreds)))
	tb.Notes = append(tb.Notes,
		"paper Figure 17: 65% of false negatives stem from the single-truth assumption",
		checkf(mHit >= sHit, "LTM recovers at least as many multi-truth items"),
		checkf(sTotal == mTotal, "both models see the same multi-truth items"))
	return tb
}

// trueRecall is the recall of gold-true triples at p >= 0.5 and the number
// of gold-true triples predicted — the axis the result transforms of §5.3
// and §5.4 should move.
func trueRecall(ds *Dataset, res *fusion.Result) (float64, int) {
	hit, total := 0, 0
	for _, f := range res.Triples {
		if !f.Predicted {
			continue
		}
		if label, ok := ds.Gold.Label(f.Triple); ok && label {
			total++
			if f.Probability >= 0.5 {
				hit++
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(hit) / float64(total), total
}

// AblationFuncDegree: does learning per-predicate functionality degrees and
// relaxing the single-truth squeeze improve truth recall (§5.3)?
func AblationFuncDegree(ds *Dataset) *Table {
	plusCfg := fusion.PopAccuPlusConfig(ds.Gold.Labeler())
	base := ds.Fuse("POPACCU+", plusCfg)
	degrees := funcdegree.LearnFromGold(base, ds.Gold.Label, 6)
	rescaled := funcdegree.Rescale(base, degrees)

	bRec, n := trueRecall(ds, base)
	rRec, _ := trueRecall(ds, rescaled)
	baseRep := ds.evalResult("POPACCU+", base)
	resRep := ds.evalResult("POPACCU+ + funcdegree", rescaled)

	tb := &Table{ID: "abl-funcdegree", Title: "Ablation: learned functionality degrees (§5.3)",
		Header: []string{"Model", "True-triple recall@0.5", "WDev", "AUC-PR"}}
	tb.AddRow(baseRep.Name, fmt.Sprintf("%.3f (n=%d)", bRec, n), fmt.Sprintf("%.4f", baseRep.WDev), fmt.Sprintf("%.4f", baseRep.AUCPR))
	tb.AddRow(resRep.Name, fmt.Sprintf("%.3f", rRec), fmt.Sprintf("%.4f", resRep.WDev), fmt.Sprintf("%.4f", resRep.AUCPR))

	// Show the learned degrees line up with the schema. Sorted keys: the
	// float sums below must not accumulate in map iteration order.
	preds := make([]kb.PredicateID, 0, len(degrees))
	for p := range degrees {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	fnDeg, nfDeg, fnN, nfN := 0.0, 0.0, 0, 0
	for _, p := range preds {
		d := degrees[p]
		if pr := ds.World.Ont.Predicate(p); pr != nil {
			if pr.Functional {
				fnDeg += d
				fnN++
			} else {
				nfDeg += d
				nfN++
			}
		}
	}
	if fnN > 0 && nfN > 0 {
		tb.Notef("learned degree: functional predicates %.2f vs non-functional %.2f",
			fnDeg/float64(fnN), nfDeg/float64(nfN))
		tb.Notes = append(tb.Notes,
			checkf(nfDeg/float64(nfN) >= fnDeg/float64(fnN), "non-functional predicates learn higher degrees"))
	}
	tb.Notes = append(tb.Notes, checkf(rRec >= bRec, "degree rescaling does not lose true triples"))
	return tb
}

// AblationHierValues: does ancestor aggregation fix specific/general false
// negatives (§5.4)?
func AblationHierValues(ds *Dataset) *Table {
	plusCfg := fusion.PopAccuPlusConfig(ds.Gold.Labeler())
	base := ds.Fuse("POPACCU+", plusCfg)
	isHier := func(p kb.PredicateID) bool {
		pr := ds.World.Ont.Predicate(p)
		return pr != nil && pr.Hierarchical
	}
	adjusted := hierval.Adjust(base, ds.World.Hier, isHier)

	// Specific/general false negatives before and after.
	countFNs := func(res *fusion.Result) int {
		ea := eval.AnalyzeErrors(ds.World, ds.Snapshot, ds.Gold, res, ds.Extractions, 0.95, 0.05)
		return ea.FN[eval.FNSpecificGeneral]
	}
	baseFN := countFNs(base)
	adjFN := countFNs(adjusted)
	baseRep := ds.evalResult("POPACCU+", base)
	adjRep := ds.evalResult("POPACCU+ + hierval", adjusted)

	tb := &Table{ID: "abl-hierval", Title: "Ablation: hierarchical value aggregation (§5.4)",
		Header: []string{"Model", "Specific/general FNs", "WDev", "AUC-PR"}}
	tb.AddRow(baseRep.Name, baseFN, fmt.Sprintf("%.4f", baseRep.WDev), fmt.Sprintf("%.4f", baseRep.AUCPR))
	tb.AddRow(adjRep.Name, adjFN, fmt.Sprintf("%.4f", adjRep.WDev), fmt.Sprintf("%.4f", adjRep.AUCPR))
	tb.Notes = append(tb.Notes,
		"paper Figure 17: 35% of false negatives are specific/general value artifacts",
		checkf(adjFN <= baseFN, "ancestor aggregation does not add specific/general FNs"))
	return tb
}
