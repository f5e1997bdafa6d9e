package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// scalarSoftmax is the historical two-pass max-subtraction softmax the
// engines inlined: one exp per lane for the denominator, then a second exp
// per lane for the probability. SoftmaxInto must agree bit-for-bit.
func scalarSoftmax(dst, scores []float64, extraMass float64) {
	m := 0.0
	for _, s := range scores {
		if s > m {
			m = s
		}
	}
	denom := extraMass * math.Exp(-m)
	for _, s := range scores {
		denom += math.Exp(s - m)
	}
	for i, s := range scores {
		dst[i] = math.Exp(s-m) / denom
	}
}

func TestSoftmaxIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64() * 50
		}
		if trial%3 == 0 {
			// Absent-lane convention: -Inf lanes must get probability 0 and
			// contribute nothing to the denominator.
			scores[rng.Intn(n)] = math.Inf(-1)
		}
		extra := rng.Float64() * 2
		got := make([]float64, n)
		want := make([]float64, n)
		SoftmaxInto(got, scores, extra)
		scalarSoftmax(want, scores, extra)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-15 {
				t.Fatalf("trial %d lane %d: SoftmaxInto %g vs scalar %g (scores=%v extra=%g)",
					trial, i, got[i], want[i], scores, extra)
			}
		}
	}
}

func TestSoftmaxIntoProperties(t *testing.T) {
	scores := []float64{1.5, math.Inf(-1), -2, 0.25}
	dst := make([]float64, len(scores))
	SoftmaxInto(dst, scores, 0.5)
	sum := 0.0
	for i, p := range dst {
		if p < 0 || p > 1 {
			t.Fatalf("lane %d: probability %g out of [0,1]", i, p)
		}
		sum += p
	}
	if dst[1] != 0 {
		t.Errorf("-Inf lane got probability %g, want 0", dst[1])
	}
	if sum >= 1 || sum <= 0 {
		t.Errorf("probabilities sum to %g, want (0,1) with extra mass present", sum)
	}
}

func TestExactSlicesMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 257
	dst := make([]float64, n)
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = rng.Float64()*100 + 1e-9
	}
	LogSlice(dst, pos)
	for i := range pos {
		if dst[i] != math.Log(pos[i]) {
			t.Fatalf("LogSlice[%d] = %g, want %g", i, dst[i], math.Log(pos[i]))
		}
	}
	acc := make([]float64, n)
	for i := range acc {
		acc[i] = rng.Float64()*1.2 - 0.1 // includes values outside the clamp range
	}
	LogOddsSlice(dst, acc, 100, 0.005, 0.995)
	for i, a := range acc {
		if a < 0.005 {
			a = 0.005
		} else if a > 0.995 {
			a = 0.995
		}
		if want := math.Log(100 * a / (1 - a)); dst[i] != want {
			t.Fatalf("LogOddsSlice[%d] = %g, want %g", i, dst[i], want)
		}
	}
	num, den := make([]float64, n), make([]float64, n)
	for i := range num {
		num[i] = rng.Float64()*0.98 + 0.01
		den[i] = rng.Float64()*0.98 + 0.01
	}
	LogRatioSlice(dst, num, den)
	for i := range num {
		if want := math.Log(num[i]) - math.Log(den[i]); dst[i] != want {
			t.Fatalf("LogRatioSlice[%d] = %g, want %g", i, dst[i], want)
		}
	}
}

func TestSigmoidProperties(t *testing.T) {
	// Matches the historical two-branch form and is overflow-safe.
	for _, x := range []float64{-1000, -50, -1, 0, 1, 50, 1000} {
		got := Sigmoid(x)
		if got < 0 || got > 1 || math.IsNaN(got) {
			t.Fatalf("Sigmoid(%g) = %g out of [0,1]", x, got)
		}
		mirror := Sigmoid(-x)
		if math.Abs(got+mirror-1) > 1e-15 {
			t.Errorf("Sigmoid(%g)+Sigmoid(%g) = %g, want 1", x, -x, got+mirror)
		}
	}
	if Sigmoid(0) != 0.5 {
		t.Errorf("Sigmoid(0) = %g, want 0.5", Sigmoid(0))
	}
}

func TestMissLogRatio(t *testing.T) {
	r, f := 0.8, 0.2
	if got, want := MissLogRatio(r, f), math.Log(1-r)-math.Log(1-f); got != want {
		t.Errorf("MissLogRatio(%g, %g) = %g, want %g", r, f, got, want)
	}
}
