package kfusion

import (
	"math"
	"testing"
)

// TestPublicAPIEndToEnd exercises the whole facade exactly the way the
// README's quickstart does.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds := Synthesize(ScaleSmall, 4242)
	if len(ds.Extractions) == 0 {
		t.Fatal("no extractions")
	}

	res := ds.Fuse("popaccu+", POPACCUPlus(ds.Gold.Labeler()))
	rep := Evaluate("POPACCU+", res, ds.Gold)
	if rep.N < 200 {
		t.Fatalf("too few labeled predictions: %d", rep.N)
	}
	if rep.WDev > 0.05 {
		t.Errorf("POPACCU+ WDev %.4f too high", rep.WDev)
	}
	if rep.AUCPR < 0.7 {
		t.Errorf("POPACCU+ AUC-PR %.4f too low", rep.AUCPR)
	}

	// Paper headline: when POPACCU+ predicts >= 0.9, real accuracy is high
	// (the paper reports 0.94); when it predicts < 0.1, accuracy is low.
	preds, _ := Predictions(res, ds.Gold)
	hiTrue, hiN, loTrue, loN := 0, 0, 0, 0
	for _, p := range preds {
		if p.Prob >= 0.9 {
			hiN++
			if p.Label {
				hiTrue++
			}
		}
		if p.Prob < 0.1 {
			loN++
			if p.Label {
				loTrue++
			}
		}
	}
	if hiN == 0 || loN == 0 {
		t.Fatal("missing extreme-probability predictions")
	}
	hi := float64(hiTrue) / float64(hiN)
	lo := float64(loTrue) / float64(loN)
	if hi < 0.85 {
		t.Errorf("accuracy at prob>=0.9 is %.2f, want >=0.85 (paper: 0.94)", hi)
	}
	if lo > 0.25 {
		t.Errorf("accuracy at prob<0.1 is %.2f, want <=0.25 (paper: 0.2)", lo)
	}
}

func TestPublicAPIManualFusion(t *testing.T) {
	claims := []Claim{
		{Triple: Triple{Subject: "s", Predicate: "p", Object: StringObject("a")}, Prov: "x"},
		{Triple: Triple{Subject: "s", Predicate: "p", Object: StringObject("a")}, Prov: "y"},
		{Triple: Triple{Subject: "s", Predicate: "p", Object: StringObject("b")}, Prov: "z"},
	}
	res, err := Fuse(claims, POPACCU())
	if err != nil {
		t.Fatal(err)
	}
	var pa, pb float64
	for _, f := range res.Triples {
		switch f.Triple.Object.Str {
		case "a":
			pa = f.Probability
		case "b":
			pb = f.Probability
		}
	}
	if pa <= pb {
		t.Errorf("majority value lost: p(a)=%.3f p(b)=%.3f", pa, pb)
	}
}

func TestPublicAPITripleRoundTrip(t *testing.T) {
	tr := Triple{Subject: "/m/1", Predicate: "/p/x", Object: NumberObject(3)}
	got, err := ParseTriple(tr.Encode())
	if err != nil || got != tr {
		t.Errorf("round trip failed: %v %v", got, err)
	}
	if _, ok := EntityObject("/m/2").Entity(); !ok {
		t.Error("EntityObject lost entity kind")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	// Every paper artifact must be present.
	want := []string{
		"table1", "table2", "table3",
		"fig3", "fig4", "fig5", "fig6", "fig7",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"abl-twolayer", "abl-multitruth", "abl-funcdegree", "abl-hierval",
		"abl-softlcwa", "abl-valuesim",
	}
	for _, id := range want {
		if ExperimentByID(id) == nil {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(Experiments) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments), len(want))
	}
}

func TestGranularityPresetsDistinct(t *testing.T) {
	x := ds0().Extractions[0]
	keys := map[string]bool{}
	for _, g := range []Granularity{GranExtractorURL, GranExtractorSite, GranExtractorSitePred, GranExtractorSitePredPattern} {
		keys[g.Key(x)] = true
	}
	if len(keys) < 3 {
		t.Errorf("granularity presets collapse: %v", keys)
	}
}

func ds0() *Dataset {
	return Synthesize(ScaleSmall, 1)
}

func TestCalibrationHelpers(t *testing.T) {
	preds := []Prediction{{Prob: 0.9, Label: true}, {Prob: 0.1, Label: false}}
	if auc := AUCPR(preds); math.Abs(auc-1) > 1e-9 {
		t.Errorf("AUCPR = %v", auc)
	}
	curve := Calibration(preds, 20)
	if curve.WeightedDeviation() > 0.011 {
		t.Errorf("WDev = %v", curve.WeightedDeviation())
	}
	if pts := PRCurve(preds); len(pts) == 0 {
		t.Error("PRCurve empty")
	}
}

// TestAppendWarmSurface smoke-tests the exported append / warm-start
// surface: append extractions in two batches onto one growing CompiledClaims,
// warm-start the second fuse, and grow a CompiledExtractions generation
// through the two-layer warm path.
func TestAppendWarmSurface(t *testing.T) {
	ds := ds0()
	xs := ds.Extractions
	cut := len(xs) / 2

	base := CompileClaimFeed(xs[:cut], GranExtractorURL, 0)
	prev, err := base.Fuse(POPACCU())
	if err != nil {
		t.Fatal(err)
	}
	next, err := base.AppendExtractions(xs[cut:], GranExtractorURL)
	if err != nil {
		t.Fatal(err)
	}
	if next.Generation() != 1 || next.NumClaims() <= base.NumClaims() {
		t.Fatalf("append did not grow: gen=%d claims %d -> %d", next.Generation(), base.NumClaims(), next.NumClaims())
	}
	warm, err := next.FuseWarm(POPACCU(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Triples) == 0 {
		t.Fatal("warm fuse produced no triples")
	}

	g := CompileExtractions(xs[:cut], true)
	tcfg := TwoLayerDefaultConfig()
	tcfg.SiteLevel = true
	_, state, err := TwoLayerFuseCompiledWarm(g, tcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, state2, err := TwoLayerFuseCompiledWarm(g.Append(xs[cut:]), tcfg, state)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) == 0 || len(state2.SrcAcc) < len(state.SrcAcc) {
		t.Fatal("two-layer append/warm surface broken")
	}
}
