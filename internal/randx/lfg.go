package randx

import "math/rand"

// lfg is math/rand's seeded generator — the additive lagged-Fibonacci
// generator of Mitchell and Reeds, x[n] = x[n-607] + x[n-273] over int64 —
// with the seeding made lazy. It returns, draw for draw, what
// rand.NewSource(seed) returns.
//
// math/rand seeds the 607-word register up front: 20 warm-up steps of the
// Lehmer chain x[k] = 48271·x[k-1] mod (2³¹-1) from the seed, then three
// steps per word, each a division, the three values packed into 64 bits and
// XORed with a table of constants ("cooked") — 1 841 dependent steps and a
// 4.9 KB allocation before the first number, whether or not one is drawn.
// But x[k] = 48271^k · x[0], so word i needs no predecessor: it is the three
// chain values k = 21+3i, 22+3i, 23+3i, reached through a table of
// 48271^(21+3i) built once (seedWord).
//
// Draw n (from 1) adds the register words at feed = 334-n mod 607 and
// tap = 607-n and stores the sum at feed. So:
//
//   - Draws 1…273 read words 333…61 and 606…334: seed words no draw has
//     stored to yet, and what draw n stores is not read before draw n+273.
//     The draw is the sum of two seed words and needs no register; a stream
//     that ends here holds its seed and a count. (Of the 424 704 streams of
//     a ScaleLarge synthesis, 17 draw more.)
//   - Draw 274 allocates the register, or takes the one an earlier stream
//     of a reseeded Source left, and replays the 273 stores into words
//     333…61.
//   - Draws 274…607 find a seed word at feed (60…0, then 606…334), computed
//     at that first touch, and at tap the sum stored 273 draws earlier.
//   - From draw 608 on every word has been stored and a draw is two loads, an
//     add and a store, as in math/rand.
type lfg struct {
	x0    uint64 // the Lehmer chain's start: the seed folded into [1, 2³¹-1)
	drawn int    // draws made, counted up to lfgLen: the rules above need no more

	vec       *[lfgLen]int64 // the feedback register; nil until a draw past lfgTap needs one
	tap, feed int            // the register positions of the last draw
}

const (
	lfgLen = 607
	lfgTap = 273

	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

// Seed resets the generator to seed's stream, as (*rand.Rand).Seed requires.
// A register left by the previous stream is kept for the next one to reuse:
// no draw reads a register word before it writes it (draw 274 replays words
// 333…61, draws 274…607 seed the word at feed first and read at tap what an
// earlier draw stored), so stale words are never seen.
func (g *lfg) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311 // math/rand's stand-in for the chain's fixed point
	}
	*g = lfg{x0: uint64(seed), vec: g.vec}
}

// Int63 returns a non-negative 63-bit integer.
func (g *lfg) Int63() int64 { return int64(g.Uint64() & (1<<63 - 1)) }

// Uint64 returns the next 64 bits of the stream.
func (g *lfg) Uint64() uint64 {
	if g.drawn < lfgTap {
		g.drawn++
		return uint64(seedSum(g.x0, g.drawn))
	}
	if g.drawn == lfgTap {
		if g.vec == nil {
			g.vec = new([lfgLen]int64)
		}
		for n := 1; n <= lfgTap; n++ {
			g.vec[lfgLen-lfgTap-n] = seedSum(g.x0, n)
		}
		g.tap, g.feed = lfgLen-lfgTap, lfgLen-2*lfgTap
	}
	if g.tap--; g.tap < 0 {
		g.tap += lfgLen
	}
	if g.feed--; g.feed < 0 {
		g.feed += lfgLen
	}
	if g.drawn < lfgLen {
		g.drawn++
		g.vec[g.feed] = seedWord(g.x0, g.feed)
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// seedSum is draw n of a chain starting at x0, for n ≤ lfgTap: the sum of
// the two seed words the draw reads.
func seedSum(x0 uint64, n int) int64 {
	return seedWord(x0, lfgLen-lfgTap-n) + seedWord(x0, lfgLen-n)
}

// seedWord is word i of the register math/rand's Seed builds from a chain
// starting at x0.
func seedWord(x0 uint64, i int) int64 {
	return lehmerWord(x0, i) ^ cooked[i]
}

// lehmerWord packs chain values 21+3i, 22+3i and 23+3i as math/rand does:
// 40 and 20 bits up, XORed. Every product is below 2⁶².
func lehmerWord(x0 uint64, i int) int64 {
	x := lehmerPow[i] * x0 % lehmerM
	u := int64(x) << 40
	x = x * lehmerA % lehmerM
	u ^= int64(x) << 20
	x = x * lehmerA % lehmerM
	return u ^ int64(x)
}

// lehmerPow[i] is 48271^(21+3i) mod (2³¹-1): the jump from the seed to the
// first chain value of word i.
var lehmerPow = func() (pow [lfgLen]uint64) {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = p * lehmerA % lehmerM
	}
	for i := range pow {
		pow[i] = p
		p = p * lehmerA % lehmerM * lehmerA % lehmerM * lehmerA % lehmerM
	}
	return pow
}()

// cooked is math/rand's additive table (rngCooked: 607 constants it does not
// export), recovered from math/rand itself so that the streams are its
// streams by construction: seed one stdlib source — the only one this
// package ever builds — take its first 607 outputs, un-run the recurrence to
// get the register it was seeded with, and XOR the chain's part back out.
//
// Draw n (from 1) returns and stores r[feed]+r[tap] with feed = 334-n mod 607
// and tap = 607-n. From draw 274 on, tap reads the word draw n-273 stored,
// which is that draw's output, so the seeded word at feed is a difference of
// two outputs; with words 606…334 known, draws 1…273 give the rest.
var cooked = func() (c [lfgLen]int64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var y [lfgLen + 1]int64 // y[n] is draw n
	for n := 1; n <= lfgLen; n++ {
		y[n] = int64(src.Uint64())
	}
	var r [lfgLen]int64
	for n := lfgTap + 1; n <= lfgLen; n++ {
		r[(lfgLen-lfgTap-n+lfgLen)%lfgLen] = y[n] - y[n-lfgTap]
	}
	for n := 1; n <= lfgTap; n++ {
		r[lfgLen-lfgTap-n] = y[n] - r[lfgLen-n]
	}
	for i := range c {
		c[i] = r[i] ^ lehmerWord(seed, i)
	}
	return c
}()
