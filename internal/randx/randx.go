// Package randx provides deterministic pseudo-randomness utilities shared by
// the synthetic-world, web-corpus and extractor simulators.
//
// Every generator in this repository is seeded explicitly so that corpora,
// extractions and fusion results are exactly reproducible run to run. A
// Source draws the stream math/rand draws for the same seed, bit for bit —
// every golden digest in the repository rests on that — but it carries its
// own implementation of math/rand's generator (lfg.go), because the
// simulators build one stream per (extractor, page) and most of those draw a
// handful of numbers or none: math/rand seeds all 607 words of state up
// front, randx computes a word when a draw first needs it and allocates no
// state at all for a stream's first 273 draws, so a stream costs what it
// draws. The distributions are math/rand's own code (rand.New over the
// generator). On
// top of that: splittable seeds (derive independent child streams from a
// parent seed and a label), Zipf samplers with bounded support, and
// categorical distributions.
package randx

import (
	"math"
	"math/rand"
)

// Source is a deterministic random stream: math/rand's stream for the same
// seed (TestSourceMatchesMathRand, FuzzSourceMatchesMathRand), seeded in
// time proportional to the numbers drawn, plus splitting and a few
// distributions the simulators need. A Source is not safe for concurrent
// use; split one stream per goroutine.
type Source struct {
	rng *rand.Rand // math/rand's distributions over gen
	gen lfg
	id  int64 // the construction seed, used to derive child streams
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{id: seed}
	s.gen.Seed(seed)
	s.rng = rand.New(&s.gen)
	return s
}

// Split derives an independent child stream identified by label. Two Sources
// with the same seed and label always produce identical streams, and streams
// for different labels are statistically independent. Splitting does not
// consume randomness from the parent.
func (s *Source) Split(label string) *Source {
	return New(int64(fnvString(fnvInt64(fnvOffset64, s.id), label)))
}

// SplitN derives an independent child stream identified by label and an index,
// e.g. one stream per page or per extractor.
func (s *Source) SplitN(label string, n int64) *Source {
	return New(int64(fnvInt64(fnvString(fnvInt64(fnvOffset64, s.id), label), n)))
}

// Child seeds are the 64-bit FNV-1a hash (hash/fnv's New64a) of the parent's
// construction seed, the label and the index, integers little-endian —
// derived from the seed, so splitting never consumes randomness from the
// parent stream, and written out here so a split allocates only its child.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvInt64(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime64
	}
	return h
}

// Float64 returns a uniform float64 in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// NormFloat64 returns a normally distributed float64 with mean 0 and stddev 1.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// Clamped01 returns a Gaussian sample with the given mean and stddev clamped
// into [0,1]. It is used for noisy-but-bounded quantities such as extraction
// confidences and per-page quality jitter.
func (s *Source) Clamped01(mean, stddev float64) float64 {
	v := mean + s.rng.NormFloat64()*stddev
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Perm returns a deterministic pseudo-random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomly shuffles n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Zipf draws Zipf-distributed values in [0, n) with exponent exp (> 1 yields
// the heavy head / long tail skew the paper observes throughout Table 1).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf constructs a Zipf sampler over [0, n) with the given exponent.
// Exponents <= 1 are clamped to 1.01 because math/rand requires s > 1.
func (s *Source) NewZipf(exponent float64, n int) *Zipf {
	if exponent <= 1 {
		exponent = 1.01
	}
	if n < 1 {
		n = 1
	}
	return &Zipf{z: rand.NewZipf(s.rng, exponent, 1, uint64(n-1))}
}

// Next draws the next Zipf value.
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// Categorical samples indexes proportionally to a fixed weight vector.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a categorical distribution over len(weights) indexes.
// Negative weights are treated as zero. If all weights are zero the
// distribution is uniform.
func NewCategorical(weights []float64) *Categorical {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total == 0 {
		for i := range cum {
			cum[i] = float64(i + 1)
		}
	}
	return &Categorical{cum: cum}
}

// Sample draws an index from the distribution using s.
func (c *Categorical) Sample(s *Source) int {
	if len(c.cum) == 0 {
		return 0
	}
	target := s.Float64() * c.cum[len(c.cum)-1]
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len reports the number of categories.
func (c *Categorical) Len() int { return len(c.cum) }

// Reservoir maintains a uniform random sample of at most k items from a
// stream of unknown length (Vitter's algorithm R). The fusion pipeline uses
// it to cap per-reducer work at L triples, mirroring the paper's sampling.
type Reservoir[T any] struct {
	k     int
	seen  int
	items []T
	src   *Source
}

// NewReservoir creates a reservoir of capacity k fed by src.
func NewReservoir[T any](k int, src *Source) *Reservoir[T] {
	if k < 1 {
		k = 1
	}
	return &Reservoir[T]{k: k, src: src, items: make([]T, 0, min(k, 1024))}
}

// Add offers one item to the reservoir.
func (r *Reservoir[T]) Add(item T) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		return
	}
	if j := r.src.Intn(r.seen); j < r.k {
		r.items[j] = item
	}
}

// Items returns the current sample. The returned slice is owned by the
// reservoir; callers must not retain it across further Add calls.
func (r *Reservoir[T]) Items() []T { return r.items }

// Seen reports how many items were offered in total.
func (r *Reservoir[T]) Seen() int { return r.seen }

// LogNormal01 returns exp(N(mu, sigma)) — a convenient heavy-tailed positive
// sample for sizes such as page counts per site.
func (s *Source) LogNormal01(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.rng.NormFloat64())
}
