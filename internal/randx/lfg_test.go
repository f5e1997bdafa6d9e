package randx

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The oracle for everything in this file is math/rand itself:
// rand.New(rand.NewSource(seed)), and hash/fnv for the child seeds.

// oracleChildSeed is the child-seed derivation written with hash/fnv.
func oracleChildSeed(parent int64, label string, n *int64) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(parent))
	h.Write(buf[:])
	h.Write([]byte(label))
	if n != nil {
		binary.LittleEndian.PutUint64(buf[:], uint64(*n))
		h.Write(buf[:])
	}
	return int64(h.Sum64())
}

// pair is a Source beside the math/rand stream it must reproduce.
type pair struct {
	s    *Source
	r    *rand.Rand
	seed int64
}

func newPair(seed int64) *pair {
	return &pair{s: New(seed), r: rand.New(rand.NewSource(seed)), seed: seed}
}

const numOps = 13

// step runs operation op with parameter arg on both streams and reports the
// first difference. Split operations replace the pair by the child's.
func (p *pair) step(t *testing.T, op, arg byte) {
	t.Helper()
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %s = %v, math/rand gives %v", p.seed, what, got, want)
		}
	}
	n := 1 + int(arg)
	switch op % numOps {
	case 0:
		same("Float64", p.s.Float64(), p.r.Float64())
	case 1:
		same("Intn", p.s.Intn(n), p.r.Intn(n))
	case 2:
		same("Int63", p.s.Int63(), p.r.Int63())
	case 3:
		prob := (float64(arg) - 1) / 253 // below 0 and above 1 at the ends: no draw
		want := prob >= 1 || (prob > 0 && p.r.Float64() < prob)
		same("Bool", p.s.Bool(prob), want)
	case 4:
		same("NormFloat64", p.s.NormFloat64(), p.r.NormFloat64())
	case 5:
		mean, sd := float64(arg)/200-0.1, float64(arg%16)/10
		want := math.Min(1, math.Max(0, mean+p.r.NormFloat64()*sd))
		same("Clamped01", p.s.Clamped01(mean, sd), want)
	case 6:
		same("Perm", p.s.Perm(n), p.r.Perm(n))
	case 7:
		got, want := make([]int, n), make([]int, n)
		for i := range got {
			got[i], want[i] = i, i
		}
		p.s.Shuffle(n, func(i, j int) { got[i], got[j] = got[j], got[i] })
		p.r.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		same("Shuffle", got, want)
	case 8:
		exp := 1.01 + float64(arg%8)/4
		z, oz := p.s.NewZipf(exp, n), rand.NewZipf(p.r, exp, 1, uint64(n-1))
		for i := 0; i < 3; i++ {
			same("Zipf.Next", z.Next(), int(oz.Uint64()))
		}
	case 9:
		mu, sigma := float64(arg)/64, float64(arg%8)/4
		same("LogNormal01", p.s.LogNormal01(mu, sigma), math.Exp(mu+sigma*p.r.NormFloat64()))
	case 10:
		// Long enough for the register to wrap from anywhere.
		for i := 0; i < lfgLen+int(arg); i++ {
			same("Int63 (burst)", p.s.Int63(), p.r.Int63())
		}
	case 11:
		label := string([]byte{'l', arg})
		p.seed = oracleChildSeed(p.seed, label, nil)
		p.s, p.r = p.s.Split(label), rand.New(rand.NewSource(p.seed))
	case 12:
		label, idx := string([]byte{'n', arg}), int64(arg)-128
		p.seed = oracleChildSeed(p.seed, label, &idx)
		p.s, p.r = p.s.SplitN(label, idx), rand.New(rand.NewSource(p.seed))
	}
}

// edgeSeeds are the seeds where math/rand's folding into [1, 2³¹-1) has a
// corner: zero and the multiples of the modulus (all replaced by 89482311),
// that stand-in itself, the ends of the chain's range, negatives, and the
// int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 42, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1,
	2 * (1<<31 - 1), -(1<<31 - 1), -(1<<31 - 2), 3*(1<<31-1) + 1, -5 * (1<<31 - 1),
	89482311, 89482311 + (1<<31 - 1), math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

func TestSourceMatchesMathRand(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		for _, seed := range edgeSeeds {
			g, want := new(lfg), rand.NewSource(seed).(rand.Source64)
			g.Seed(seed)
			for i := 0; i < 3*lfgLen+50; i++ { // the register wraps three times
				if i%5 == 0 {
					if got, w := g.Int63(), want.Int63(); got != w {
						t.Fatalf("seed %d draw %d: Int63 = %d, math/rand gives %d", seed, i, got, w)
					}
					continue
				}
				if got, w := g.Uint64(), want.Uint64(); got != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand gives %d", seed, i, got, w)
				}
			}
		}
	})
	t.Run("methods", func(t *testing.T) {
		for _, seed := range edgeSeeds {
			p := newPair(seed)
			for round := 0; round < 3; round++ {
				for op := 0; op < 11; op++ { // every drawing method, then a burst
					p.step(t, byte(op), byte(37*op+91*round+int(seed&7)))
				}
			}
		}
	})
	t.Run("split-chains", func(t *testing.T) {
		for _, seed := range edgeSeeds {
			p := newPair(seed)
			for depth := 0; depth < 6; depth++ {
				p.step(t, byte(11+depth%2), byte(depth*50)) // Split, SplitN alternately
				for op := 0; op < 10; op++ {
					p.step(t, byte(op), byte(depth+op))
				}
			}
			p.step(t, 10, 255)
		}
	})
	t.Run("reseed", func(t *testing.T) {
		// (*rand.Rand).Seed reaches the generator's Seed: a used stream
		// restarts as the new seed's.
		p := newPair(3)
		p.step(t, 10, 0)
		p.s.rng.Seed(-77)
		p.r.Seed(-77)
		p.step(t, 10, 9)
	})
}

// TestSeedingIsLazy: a split allocates its child and nothing else, a stream
// holds no register until it has drawn more than lfgTap numbers, and then
// only its own.
func TestSeedingIsLazy(t *testing.T) {
	root := New(42)
	child := root.Split("pages").SplitN("page", 7)
	var sink *Source
	if a := testing.AllocsPerRun(50, func() {
		sink = root.SplitN("TXT1|http://site/page", 9)
		for i := 0; i < lfgTap; i++ {
			sink.Float64()
		}
	}); a > 2 {
		t.Errorf("SplitN and %d draws make %.0f allocations, want the Source and its rand.Rand", lfgTap, a)
	}
	for _, s := range []*Source{root, child, sink} {
		if s.gen.vec != nil {
			t.Fatalf("a source holds a register after %d draws", s.gen.drawn)
		}
	}
	sink.Float64()
	if sink.gen.vec == nil {
		t.Fatalf("no register after draw %d", lfgTap+1)
	}
	if root.gen.vec != nil {
		t.Fatal("a child's draws touched its parent")
	}
}

// TestResetAllocatesNothing: a stream derived through a Label and a Reset
// costs no allocation, also when it draws past lfgTap into the register an
// earlier stream left.
func TestResetAllocatesNothing(t *testing.T) {
	root := New(42)
	src := New(0)
	prefix := root.Label("TXT1|")
	i := int64(0)
	if a := testing.AllocsPerRun(50, func() {
		i++
		src.Reset(prefix.Then("http://site/page").Seed(i))
		for d := 0; d < lfgLen+1; d++ {
			src.Float64()
		}
	}); a != 0 {
		t.Errorf("Label, Reset and %d draws make %.0f allocations, want 0", lfgLen+1, a)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3})
	f.Add(int64(42), []byte{10, 0, 10, 255, 4, 4, 8, 200})
	f.Add(int64(math.MinInt64), []byte{11, 7, 0, 0, 12, 250, 6, 30, 10, 1})
	f.Add(int64(1<<31-1), []byte{3, 0, 3, 255, 3, 128, 7, 99, 9, 9, 5, 5})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		p := newPair(seed)
		for i := 0; i+1 < len(script); i += 2 {
			p.step(t, script[i], script[i+1])
		}
		p.step(t, 2, 0)
	})
}

// FuzzLabelResetMatchesSplit holds the allocation-free way to derive a stream
// to the splitting one: a Label hash continued piecewise is the seed
// SplitN and Split derive from the joined label (and hash/fnv's), and a
// Source reseeded by Reset after an earlier stream allocated its register
// draws word for word what New draws for the seed.
func FuzzLabelResetMatchesSplit(f *testing.F) {
	f.Add(int64(42), "TXT1|", "http://wiki042.example.com/p7", int64(7), uint16(0), uint16(700))
	f.Add(int64(0), "", "", int64(-1), uint16(1), uint16(0))
	f.Add(int64(math.MinInt64), "/m/e1", "#/p/born", int64(math.MaxInt64), uint16(400), uint16(273))
	f.Add(int64(1<<31-1), "a", "b", int64(1<<31), uint16(65535), uint16(2000))
	f.Fuzz(func(t *testing.T, parent int64, a, b string, n int64, prior, draws uint16) {
		root := New(parent)
		l := root.Label(a).Then(b)
		if got, want := l.Seed(n), root.SplitN(a+b, n).id; got != want {
			t.Fatalf("Label(%q).Then(%q).Seed(%d) = %d, SplitN gives %d", a, b, n, got, want)
		}
		if got, want := l.Seed(n), oracleChildSeed(parent, a+b, &n); got != want {
			t.Fatalf("Label(%q).Then(%q).Seed(%d) = %d, hash/fnv gives %d", a, b, n, got, want)
		}
		if got, want := l.SplitSeed(), root.Split(a+b).id; got != want {
			t.Fatalf("Label(%q).Then(%q).SplitSeed() = %d, Split gives %d", a, b, got, want)
		}
		if got, want := l.SplitSeed(), oracleChildSeed(parent, a+b, nil); got != want {
			t.Fatalf("Label(%q).Then(%q).SplitSeed() = %d, hash/fnv gives %d", a, b, got, want)
		}

		// The earlier stream runs past draw lfgTap+1, so the Source holds a
		// register with that stream's words when it is reset.
		s := New(parent)
		for i := 0; i < lfgTap+1+int(prior)%(2*lfgLen); i++ {
			s.gen.Uint64()
		}
		if s.gen.vec == nil {
			t.Fatal("no register after the earlier stream")
		}
		seed := l.Seed(n)
		s.Reset(seed)
		fresh := New(seed)
		for i := 0; i < int(draws)%(3*lfgLen+50); i++ {
			if got, want := s.gen.Uint64(), fresh.gen.Uint64(); got != want {
				t.Fatalf("reset source draw %d = %d, New(%d) gives %d", i+1, got, seed, want)
			}
		}
		if got, want := s.Float64(), fresh.Float64(); got != want {
			t.Fatalf("reset source Float64 = %v, New gives %v", got, want)
		}
	})
}
