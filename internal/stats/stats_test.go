package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 4, 1, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Mean-2.8) > 1e-12 {
		t.Errorf("mean = %v, want 2.8", s.Mean)
	}
	even := Summarize([]float64{1, 2, 3, 4})
	if even.Median != 2.5 {
		t.Errorf("even median = %v, want 2.5", even.Median)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
	ints := SummarizeInts([]int{2, 2, 8})
	if ints.Median != 2 || ints.Max != 8 {
		t.Errorf("SummarizeInts = %+v", ints)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestSummarizeQuickBounds(t *testing.T) {
	// Summarize serves count/probability data; the property holds for any
	// input whose sum stays within float64 range, so the generator maps
	// raw values into a wide-but-finite magnitude band.
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			clean = append(clean, math.Mod(x, 1e15))
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for _, v := range []float64{0, 0.05, 0.15, 0.95, 1.0, 2.0, -1.0} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Counts[0] != 3 { // 0, 0.05, -1 clamp
		t.Errorf("bucket 0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[9] != 3 { // 0.95, 1.0, 2.0 clamp
		t.Errorf("bucket 9 = %d, want 3", h.Counts[9])
	}
	if h.Counts[1] != 1 {
		t.Errorf("bucket 1 = %d, want 1", h.Counts[1])
	}
	fr := h.Fractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum = %v", sum)
	}
	if h.BucketLabel(0) == "" {
		t.Error("BucketLabel empty")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(5, 5, 0) // both params invalid
	h.Add(5)
	if h.Total() != 1 || len(h.Counts) != 1 {
		t.Errorf("degenerate histogram: %+v", h)
	}
	if f := NewHistogram(0, 1, 4).Fractions(); len(f) != 4 {
		t.Errorf("empty Fractions len = %d", len(f))
	}
}

func TestAccuracyCurve(t *testing.T) {
	c := NewAccuracyCurve()
	for i := 0; i < 10; i++ {
		c.Add(1, i < 3) // 0.3 at x=1
		c.Add(5, i < 8) // 0.8 at x=5
	}
	if r, n := c.Rate(1); n != 10 || math.Abs(r-0.3) > 1e-12 {
		t.Errorf("Rate(1) = %v,%v", r, n)
	}
	if r, n := c.Rate(5); n != 10 || math.Abs(r-0.8) > 1e-12 {
		t.Errorf("Rate(5) = %v,%v", r, n)
	}
	if _, n := c.Rate(99); n != 0 {
		t.Error("Rate(99) should be empty")
	}
	xs := c.Xs()
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 5 {
		t.Errorf("Xs = %v", xs)
	}
	if r, n := c.RateBetween(0, 10); n != 20 || math.Abs(r-0.55) > 1e-12 {
		t.Errorf("RateBetween = %v,%v", r, n)
	}
}
