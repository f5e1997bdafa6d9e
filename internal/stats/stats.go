// Package stats provides the small statistical helpers the corpus analyses
// and figure reproductions share: skew summaries (Table 1's mean/median/min/
// max rows), fixed-width histograms (Figures 4, 5, 16, 19), and bucketed
// accuracy curves (Figures 6, 7, 18, 21).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary captures the skew statistics the paper reports for its heavy-tailed
// distributions.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary over xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	total := 0.0
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, x := range sorted {
		total += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = total / float64(len(xs))
	if n := len(sorted); n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}

// SummarizeInts is Summarize over integer counts.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// String renders the summary as a Table 1-style row.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.1f median=%.1f min=%.0f max=%.0f", s.Mean, s.Median, s.Min, s.Max)
}

// Histogram is a fixed-width histogram over [Lo, Hi]; values outside the
// range clamp to the edge buckets.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds a histogram with n equal-width buckets over [lo, hi].
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	idx := h.BucketOf(v)
	h.Counts[idx]++
	h.total++
}

// BucketOf returns the bucket index v falls into.
func (h *Histogram) BucketOf(v float64) int {
	n := len(h.Counts)
	if v <= h.Lo {
		return 0
	}
	if v >= h.Hi {
		return n - 1
	}
	idx := int(float64(n) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Total reports the number of observations.
func (h *Histogram) Total() int { return h.total }

// Fractions returns each bucket's share of the total (zeros when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// BucketLabel renders bucket i's range, e.g. "[0.2,0.3)".
func (h *Histogram) BucketLabel(i int) string {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	lo := h.Lo + float64(i)*width
	return fmt.Sprintf("[%.2g,%.2g)", lo, lo+width)
}

// AccuracyCurve accumulates success rates bucketed by an integer x-axis
// (number of extractors, number of URLs, …). Buckets are created on demand.
type AccuracyCurve struct {
	hits  map[int]int
	total map[int]int
}

// NewAccuracyCurve returns an empty curve.
func NewAccuracyCurve() *AccuracyCurve {
	return &AccuracyCurve{hits: make(map[int]int), total: make(map[int]int)}
}

// Add records one observation at x.
func (c *AccuracyCurve) Add(x int, ok bool) {
	c.total[x]++
	if ok {
		c.hits[x]++
	}
}

// Rate returns the success rate at x and the observation count.
func (c *AccuracyCurve) Rate(x int) (float64, int) {
	n := c.total[x]
	if n == 0 {
		return 0, 0
	}
	return float64(c.hits[x]) / float64(n), n
}

// Xs returns the occupied x values in ascending order.
func (c *AccuracyCurve) Xs() []int {
	out := make([]int, 0, len(c.total))
	for x := range c.total {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

// RateBetween aggregates the success rate over x in [lo, hi].
func (c *AccuracyCurve) RateBetween(lo, hi int) (float64, int) {
	hits, total := 0, 0
	for x, n := range c.total {
		if x >= lo && x <= hi {
			total += n
			hits += c.hits[x]
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(hits) / float64(total), total
}
