package eval

import (
	"math"
	"testing"
	"testing/quick"

	"kfusion/internal/extract"
	"kfusion/internal/kb"
	"kfusion/internal/world"
)

func TestGoldStandardLCWA(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(50))
	snap := world.BuildFreebase(w)
	gold := NewGoldStandard(snap)

	// Every snapshot triple labels true.
	for _, tr := range snap.Store.Triples()[:100] {
		if label, ok := gold.Label(tr); !ok || !label {
			t.Fatalf("snapshot triple labeled (%v,%v): %v", label, ok, tr)
		}
	}
	// A bogus value on a known item labels false.
	known := snap.Store.Items()[0]
	bogus := known.WithObject(kb.StringObject("no-such-value-xyzzy"))
	if label, ok := gold.Label(bogus); !ok || label {
		t.Errorf("bogus value on known item labeled (%v,%v)", label, ok)
	}
	// An unknown item abstains.
	unknown := kb.Triple{Subject: "/m/doesnotexist", Predicate: "/people/person/birth_date", Object: kb.StringObject("x")}
	if _, ok := gold.Label(unknown); ok {
		t.Error("unknown item did not abstain")
	}
}

func TestGoldCoverage(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(51))
	snap := world.BuildFreebase(w)
	gold := NewGoldStandard(snap)
	triples := snap.Store.Triples()
	labeled, trueN := gold.Coverage(triples)
	if labeled != len(triples) || trueN != len(triples) {
		t.Errorf("coverage over snapshot triples = (%d,%d), want (%d,%d)", labeled, trueN, len(triples), len(triples))
	}
}

func TestCalibrationPerfect(t *testing.T) {
	// Predictions that are exactly calibrated: prob p true with rate p.
	var preds []Prediction
	for _, p := range []float64{0.1, 0.3, 0.7, 0.9} {
		for i := 0; i < 100; i++ {
			preds = append(preds, Prediction{Prob: p, Label: float64(i) < p*100})
		}
	}
	c := Calibration(preds, 20)
	if d := c.Deviation(); d > 1e-6 {
		t.Errorf("perfectly calibrated deviation = %v", d)
	}
	if wd := c.WeightedDeviation(); wd > 1e-6 {
		t.Errorf("perfectly calibrated weighted deviation = %v", wd)
	}
}

func TestCalibrationBuckets(t *testing.T) {
	preds := []Prediction{
		{Prob: 0, Label: false}, {Prob: 0.049, Label: true},
		{Prob: 1, Label: true}, {Prob: 0.999, Label: false},
	}
	c := Calibration(preds, 20)
	if len(c.Buckets) != 21 {
		t.Fatalf("bucket count = %d, want 21", len(c.Buckets))
	}
	if c.Buckets[0].N != 2 {
		t.Errorf("bucket 0 N = %d, want 2 (0 and 0.049)", c.Buckets[0].N)
	}
	if c.Buckets[20].N != 1 {
		t.Errorf("prob==1 bucket N = %d, want 1", c.Buckets[20].N)
	}
	if c.Buckets[19].N != 1 {
		t.Errorf("bucket 19 N = %d, want 1 (0.999)", c.Buckets[19].N)
	}
	total := 0
	for _, b := range c.Buckets {
		total += b.N
	}
	if total != len(preds) {
		t.Errorf("bucket conservation: %d vs %d", total, len(preds))
	}
}

func TestCalibrationBucketConservationQuick(t *testing.T) {
	f := func(raw []float64) bool {
		var preds []Prediction
		for i, r := range raw {
			p := math.Abs(r)
			p -= math.Floor(p) // [0,1)
			preds = append(preds, Prediction{Prob: p, Label: i%2 == 0})
		}
		c := Calibration(preds, 20)
		total := 0
		for _, b := range c.Buckets {
			total += b.N
		}
		return total == len(preds) && c.Deviation() >= 0 && c.WeightedDeviation() >= 0 && c.Deviation() <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPRCurveAndAUC(t *testing.T) {
	// Perfect ranking: all true above all false → AUC-PR = 1.
	var preds []Prediction
	for i := 0; i < 50; i++ {
		preds = append(preds, Prediction{Prob: 0.9, Label: true}, Prediction{Prob: 0.1, Label: false})
	}
	if auc := AUCPR(preds); math.Abs(auc-1) > 1e-9 {
		t.Errorf("perfect AUC-PR = %v, want 1", auc)
	}
	// Inverted ranking: all false above all true → low AUC.
	var inv []Prediction
	for i := 0; i < 50; i++ {
		inv = append(inv, Prediction{Prob: 0.1, Label: true}, Prediction{Prob: 0.9, Label: false})
	}
	if auc := AUCPR(inv); auc > 0.6 {
		t.Errorf("inverted AUC-PR = %v, want low", auc)
	}
	// Random-ish baseline: AUC ≈ base rate.
	var rnd []Prediction
	for i := 0; i < 1000; i++ {
		rnd = append(rnd, Prediction{Prob: 0.5, Label: i%4 == 0})
	}
	if auc := AUCPR(rnd); math.Abs(auc-0.25) > 0.05 {
		t.Errorf("uniform AUC-PR = %v, want ≈0.25 (base rate)", auc)
	}
}

func TestAUCPRBoundsQuick(t *testing.T) {
	f := func(raw []float64, labels []bool) bool {
		n := len(raw)
		if len(labels) < n {
			n = len(labels)
		}
		var preds []Prediction
		for i := 0; i < n; i++ {
			p := math.Abs(raw[i])
			p -= math.Floor(p)
			preds = append(preds, Prediction{Prob: p, Label: labels[i]})
		}
		auc := AUCPR(preds)
		return auc >= 0 && auc <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPRCurveMonotoneRecall(t *testing.T) {
	preds := []Prediction{
		{0.9, true}, {0.8, false}, {0.7, true}, {0.6, true}, {0.5, false},
	}
	pts := PRCurve(preds)
	for i := 1; i < len(pts); i++ {
		if pts[i].Recall < pts[i-1].Recall {
			t.Fatalf("recall not monotone: %+v", pts)
		}
	}
	last := pts[len(pts)-1]
	if math.Abs(last.Recall-1) > 1e-12 {
		t.Errorf("final recall = %v, want 1", last.Recall)
	}
}

func TestMonotonicity(t *testing.T) {
	perfect := []Prediction{{0.9, true}, {0.8, true}, {0.2, false}, {0.1, false}}
	if m := Monotonicity(perfect); math.Abs(m-1) > 1e-12 {
		t.Errorf("perfect monotonicity = %v", m)
	}
	random := []Prediction{{0.5, true}, {0.5, false}}
	if m := Monotonicity(random); math.Abs(m-0.5) > 1e-12 {
		t.Errorf("tied monotonicity = %v", m)
	}
	if m := Monotonicity(nil); m != 0.5 {
		t.Errorf("empty monotonicity = %v", m)
	}
}

func TestDistribution(t *testing.T) {
	probs := []float64{0.02, 0.03, 0.5, 1.0}
	d := Distribution(probs, 20)
	if len(d) != 21 {
		t.Fatalf("distribution len = %d", len(d))
	}
	if math.Abs(d[0]-0.5) > 1e-12 {
		t.Errorf("bucket 0 = %v, want 0.5", d[0])
	}
	if math.Abs(d[20]-0.25) > 1e-12 {
		t.Errorf("==1 bucket = %v, want 0.25", d[20])
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func TestKappaProperties(t *testing.T) {
	// Identical sets: κ = (n·N − n²)/(N² − n²) > 0 for n < N.
	if k := Kappa(50, 50, 50, 100); k <= 0 {
		t.Errorf("identical sets κ = %v, want > 0", k)
	}
	// Disjoint sets κ < 0.
	if k := Kappa(0, 50, 50, 100); k >= 0 {
		t.Errorf("disjoint sets κ = %v, want < 0", k)
	}
	// Independence: intersection = t1·t2/N → κ = 0.
	if k := Kappa(25, 50, 50, 100); math.Abs(k) > 1e-12 {
		t.Errorf("independent sets κ = %v, want 0", k)
	}
	// Symmetry.
	if Kappa(10, 30, 60, 200) != Kappa(10, 60, 30, 200) {
		t.Error("κ not symmetric")
	}
	// Degenerate denominator.
	if k := Kappa(5, 5, 5, 5); k != 0 {
		t.Errorf("degenerate κ = %v, want 0", k)
	}
}

func TestKappaMatrix(t *testing.T) {
	tr := func(s string) kb.Triple {
		return kb.Triple{Subject: kb.EntityID(s), Predicate: "p", Object: kb.StringObject("v")}
	}
	xs := []extract.Extraction{
		{Triple: tr("a"), Extractor: "E1"}, {Triple: tr("b"), Extractor: "E1"},
		{Triple: tr("a"), Extractor: "E2"}, {Triple: tr("b"), Extractor: "E2"},
		{Triple: tr("c"), Extractor: "E3"},
	}
	pairs := KappaMatrix(xs, func(a, b string) bool { return a[0] == b[0] })
	if len(pairs) != 3 {
		t.Fatalf("pair count = %d, want 3", len(pairs))
	}
	for _, p := range pairs {
		switch {
		case p.A == "E1" && p.B == "E2":
			if p.Kappa <= 0 {
				t.Errorf("overlapping extractors κ = %v, want > 0", p.Kappa)
			}
		case p.B == "E3":
			if p.Kappa >= 0 {
				t.Errorf("disjoint extractor κ = %v, want < 0", p.Kappa)
			}
		}
		if !p.SameType {
			t.Error("sameType callback not honored")
		}
	}
}
