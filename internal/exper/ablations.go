package exper

import (
	"fmt"

	"kfusion/internal/eval"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/multitruth"
	"kfusion/internal/twolayer"
)

// Ablations for the §5 future-direction implementations. Each compares the
// refined baseline against one extension on the axis the paper says the
// extension should move.

// AblationTwoLayer: does separating extractor precision from source accuracy
// (§5.1) recover the Figure 18 signal the flat provenance buries?
func AblationTwoLayer(ds *Dataset) *Table {
	base := ds.report("POPACCU", fusion.PopAccuConfig())

	// The two-layer model rides the dataset's shared compiled extraction
	// graph, the way the fusion models ride the shared claim graph.
	cfg := twolayer.DefaultConfig()
	cfg.SiteLevel = true
	two := twolayer.MustFuseCompiled(ds.ExtractionGraph(true), cfg)
	twoRep := eval.Evaluate("TWOLAYER", two, ds.Gold)

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
