package csr

import (
	"hash/maphash"
	"math"

	"kfusion/internal/kb"
)

// Open-addressing intern tables for the compile hot loops of both graphs.
//
// Interning a claim or extraction stream is one hash-table hit per record per
// ID space, and the generic Go map pays for a bucket walk, tophash checks and
// a map header on every access. A compiled graph already stores every
// interned key densely in ID order (its triple, item and key columns), so
// InternTable keeps only (hash, ID+1) pairs in flat arrays: lookups probe
// linearly from the hash slot, compare the stored 64-bit hash first and touch
// the external key slice only on a hash match. Keys made of two IDs —
// a (provenance, triple) claim or a (source, triple) statement — need no
// external slice at all: PairTable stores the packed word itself.
//
// The seeds are random per table, but nothing observable depends on them: IDs
// are assigned by the caller in stream first-occurrence order, a table is a
// pure lookup structure over them, and no iteration ever walks one. Graph
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

// HashTriple is the intern-table hash for candidate triples: equal triples
// hash equal (±0 objects fold together, as they compare equal), and the
// value is private to one table, so it owes nothing to kb's stable
// field-wise FNV hashes.
func HashTriple(t kb.Triple) uint64 {
	h := mixString(mixPrime, string(t.Subject))
	h = mixString(h, string(t.Predicate))
	h = mixString(h, t.Object.Str)
	num := t.Object.Num
	if num == 0 {
		num = 0 // fold -0 onto +0: they compare equal
	}
	return mixWord(h, math.Float64bits(num)^uint64(t.Object.Kind))
}

// HashItem is the intern-table hash for data items.
func HashItem(d kb.DataItem) uint64 {
	return mixString(mixString(mixPrime, string(d.Subject)), string(d.Predicate))
}

// InternTable maps a key's hash to its dense ID. Keys live in the caller's
// dense slice (ID order); construct with NewInternTable or BuildInternTable.
type InternTable[K comparable] struct {
	seed   maphash.Seed
	hashFn func(K) uint64 // overrides maphash when non-nil (HashTriple, HashItem)
	hashes []uint64
	slots  []int32 // ID+1; 0 marks an empty slot
	mask   uint64
	n      int
}

// NewInternTable returns a table presized for sizeHint keys (it will not
// grow before exceeding that many inserts). hashFn, when non-nil, replaces
// maphash.Comparable — struct keys hash measurably faster through a
// field-wise word hash than through the runtime's generic typehash walk.
func NewInternTable[K comparable](sizeHint int, hashFn func(K) uint64) InternTable[K] {
	size := slotsFor(sizeHint)
	return InternTable[K]{
		seed:   maphash.MakeSeed(),
		hashFn: hashFn,
		hashes: make([]uint64, size),
		slots:  make([]int32, size),
		mask:   uint64(size - 1),
	}
}

// BuildInternTable bulk-loads a table over an existing dense key slice — for
// callers that hold the full key list in ID order (an index rebuilt from a
// graph) and just need the lookup structure over it.
func BuildInternTable[K comparable](keys []K, hashFn func(K) uint64) InternTable[K] {
	t := NewInternTable[K](len(keys), hashFn)
	for i := range keys {
		t.insert(t.Hash(keys[i]), int32(i))
	}
	return t
}

// slotsFor returns the power-of-two slot count that holds sizeHint entries
// at the 0.75 load the tables here grow at.
func slotsFor(sizeHint int) int {
	size := 16
	for size*3 < sizeHint*4 {
		size *= 2
	}
	return size
}

// Hash returns key's probe hash; pass it to ID and Intern so one interning
// step hashes once.
func (t *InternTable[K]) Hash(key K) uint64 {
	if t.hashFn != nil {
		return t.hashFn(key)
	}
	return maphash.Comparable(t.seed, key)
}

// ID returns the ID interned for key (whose Hash(key) is h) or -1. keys is
// the caller's dense ID -> key slice.
func (t *InternTable[K]) ID(h uint64, key K, keys []K) int32 {
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

// Intern returns the ID of key (whose Hash(key) is h) in the ID space (t,
// *keys) and false if it is held, and otherwise appends key to *keys, records
// it under the next ID and returns that ID and true — the twin of
// PairTable.Intern, and the one interning step of both graphs. An absent key
// takes the empty slot its lookup ended on, unless the insert must grow the
// table first.
func (t *InternTable[K]) Intern(h uint64, keys *[]K, key K) (int32, bool) {
	col := *keys
	i := h & t.mask
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if t.hashes[i] == h && col[s-1] == key {
			return s - 1, false
		}
		i = (i + 1) & t.mask
	}
	id := int32(len(col))
	*keys = append(col, key)
	if (t.n+1)*4 > len(t.slots)*3 {
		t.insert(h, id)
	} else {
		t.hashes[i], t.slots[i] = h, id+1
		t.n++
	}
	return id, true
}

// insert records id for an absent key with hash h.
func (t *InternTable[K]) insert(h uint64, id int32) {
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
func (t *InternTable[K]) grow() {
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

// PairTable interns pairs of non-negative int32 IDs — (provenance, triple),
// (source, triple) — each packed into one word: a slot holds the word plus
// one, so zero marks an empty slot (the top bit of a non-negative ID is clear
// and the increment cannot wrap), and beside it the ID the pair was interned
// under. A table made by NewPairSet keeps no IDs and only answers whether a
// pair is new.
type PairTable struct {
	words []uint64
	ids   []int32 // aligned with words; nil for a set
	mask  uint64
	n     int
}

// NewPairTable returns a table that will not grow before sizeHint pairs.
func NewPairTable(sizeHint int) PairTable {
	p := NewPairSet(sizeHint)
	p.ids = make([]int32, len(p.words))
	return p
}

// NewPairSet returns an ID-less table that will not grow before sizeHint
// pairs: Intern's answer is then only whether the pair was absent.
func NewPairSet(sizeHint int) PairTable {
	size := slotsFor(sizeHint)
	return PairTable{words: make([]uint64, size), mask: uint64(size - 1)}
}

// Add inserts the pair (a, b) and reports whether it was absent — the set
// form of Intern.
func (p *PairTable) Add(a, b int32) bool {
	_, added := p.Intern(a, b, 0)
	return added
}

// Intern returns the ID of the pair (a, b) and false if it is held, and
// otherwise records it under id and returns id and true.
func (p *PairTable) Intern(a, b, id int32) (int32, bool) {
	if (p.n+1)*4 > len(p.words)*3 {
		p.grow()
	}
	w := (uint64(uint32(a))<<32 | uint64(uint32(b))) + 1
	for i := mixWord(mixPrime, w) & p.mask; ; i = (i + 1) & p.mask {
		switch p.words[i] {
		case w:
			if p.ids == nil {
				return 0, false
			}
			return p.ids[i], false
		case 0:
			p.words[i] = w
			if p.ids != nil {
				p.ids[i] = id
			}
			p.n++
			return id, true
		}
	}
}

// grow doubles the slot arrays, re-slotting every word.
func (p *PairTable) grow() {
	words, ids := p.words, p.ids
	size := max(2*len(words), 16)
	p.words, p.mask = make([]uint64, size), uint64(size-1)
	if ids != nil {
		p.ids = make([]int32, size)
	}
	for j, w := range words {
		if w == 0 {
			continue
		}
		i := mixWord(mixPrime, w) & p.mask
		for p.words[i] != 0 {
			i = (i + 1) & p.mask
		}
		p.words[i] = w
		if ids != nil {
			p.ids[i] = ids[j]
		}
	}
}
