package fusion

import (
	"hash/maphash"
	"math"

	"kfusion/internal/kb"
)

// Open-addressing intern tables for the compile hot loop.
//
// Interning a claim stream is one hash-table hit per claim per ID space, and
// the generic Go map pays for a bucket walk, tophash checks and a map header
// on every access. The compiled graph already stores every interned key
// densely in ID order (g.triples, g.items, g.provKeys), so the table here
// keeps only (hash, ID+1) pairs in flat arrays: lookups probe linearly from
// the hash slot, compare the stored 64-bit hash first and touch the external
// key slice only on a hash match. Hashing is maphash.Comparable — the
// runtime's hardware-accelerated hash, which folds -0.0/+0.0 and treats
// struct keys fieldwise like the built-in map would.
//
// The seed is random per table, but nothing observable depends on it: IDs
// are assigned by the caller in stream first-occurrence order, the table is
// a pure lookup structure over them, and no iteration ever walks it. Graph
// bits stay identical across runs, workers and processes.

// mixPrime is an odd 64-bit multiplier (the golden-ratio constant) for the
// word-wise mixing hash below.
const mixPrime = 0x9E3779B97F4A7C15

// mixWord folds one 64-bit word into h. The xorshift after the multiply
// carries high input bits back into the low bits the table mask reads —
// a bare multiply would let them influence upward only.
func mixWord(h, k uint64) uint64 {
	h = (h ^ k) * mixPrime
	return h ^ h>>32
}

// mixString folds s into h eight bytes at a time. Byte-serial FNV chains one
// ~5-cycle multiply per input byte, and interning is the compile hot loop;
// word loads cut that chain 8x. The tail word folds the length so field
// boundaries cannot collide ("ab"+"c" vs "a"+"bc").
func mixString(h uint64, s string) uint64 {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		k := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = mixWord(h, k)
	}
	var k uint64
	for j := len(s) - 1; j >= i; j-- {
		k = k<<8 | uint64(s[j])
	}
	return mixWord(h, k^uint64(len(s))<<56)
}

// hashTriple is the intern-table hash for candidate triples: equal triples
// hash equal (±0 objects fold together, as they compare equal), and the
// value is private to one table, so it owes nothing to kb's stable
// field-wise FNV hashes.
func hashTriple(t kb.Triple) uint64 {
	h := mixString(mixPrime, string(t.Subject))
	h = mixString(h, string(t.Predicate))
	h = mixString(h, t.Object.Str)
	num := t.Object.Num
	if num == 0 {
		num = 0 // fold -0 onto +0: they compare equal
	}
	return mixWord(h, math.Float64bits(num)^uint64(t.Object.Kind))
}

// hashItem is the intern-table hash for data items.
func hashItem(d kb.DataItem) uint64 {
	return mixString(mixString(mixPrime, string(d.Subject)), string(d.Predicate))
}

// internTable maps a key's hash to its dense ID. Keys live in the caller's
// dense slice (ID order); construct with newInternTable or buildInternTable.
type internTable[K comparable] struct {
	seed   maphash.Seed
	hashFn func(K) uint64 // overrides maphash when non-nil (kb's FNV hashes)
	hashes []uint64
	slots  []int32 // ID+1; 0 marks an empty slot
	mask   uint64
	n      int
}

// newInternTable returns a table presized for sizeHint keys (it will not
// grow before exceeding that many inserts). hashFn, when non-nil, replaces
// maphash.Comparable — struct keys hash measurably faster through kb's
// field-wise FNV than through the runtime's generic typehash walk.
func newInternTable[K comparable](sizeHint int, hashFn func(K) uint64) internTable[K] {
	size := slotsFor(sizeHint)
	return internTable[K]{
		seed:   maphash.MakeSeed(),
		hashFn: hashFn,
		hashes: make([]uint64, size),
		slots:  make([]int32, size),
		mask:   uint64(size - 1),
	}
}

// slotsFor returns the power-of-two slot count that holds sizeHint entries
// at the 0.75 load the open-addressed tables here grow at.
func slotsFor(sizeHint int) int {
	size := 16
	for size*3 < sizeHint*4 {
		size *= 2
	}
	return size
}

// hash returns key's probe hash; pass it to id and insert so one interning
// step hashes once.
func (t *internTable[K]) hash(key K) uint64 {
	if t.hashFn != nil {
		return t.hashFn(key)
	}
	return maphash.Comparable(t.seed, key)
}

// id returns the ID interned for key (whose hash(key) is h) or -1. keys is
// the caller's dense ID->key slice.
func (t *internTable[K]) id(h uint64, key K, keys []K) int32 {
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.hashes[i] == h && keys[s-1] == key {
			return s - 1
		}
		i = (i + 1) & t.mask
	}
}

// insert records id for a key with hash h. The key must be absent (callers
// intern: one failed id lookup, append to the key slice, insert).
func (t *internTable[K]) insert(h uint64, id int32) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	i := h & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.hashes[i] = h
	t.slots[i] = id + 1
	t.n++
}

// grow doubles the slot array, re-slotting every entry from its stored hash
// (keys are never re-read, so growth cost is pure memory movement).
func (t *internTable[K]) grow() {
	size := len(t.slots) * 2
	if size == 0 {
		size = 16
	}
	hashes := make([]uint64, size)
	slots := make([]int32, size)
	mask := uint64(size - 1)
	for j, s := range t.slots {
		if s == 0 {
			continue
		}
		h := t.hashes[j]
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		hashes[i] = h
		slots[i] = s
	}
	t.hashes, t.slots, t.mask = hashes, slots, mask
}

// buildInternTable bulk-loads a table over an existing dense key slice —
// the parallel-intern merge and rebuildIndex both end with the full
// key list in ID order and just need the lookup structure over it.
func buildInternTable[K comparable](keys []K, hashFn func(K) uint64) internTable[K] {
	t := newInternTable[K](len(keys), hashFn)
	for i := range keys {
		t.insert(t.hash(keys[i]), int32(i))
	}
	return t
}
