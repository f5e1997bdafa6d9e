package csr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kfusion/internal/kb"
)

// internAll interns keys through tab in stream order by the graphs' one
// interning step (Intern) and returns the ID each key got and the dense key
// column. It fails t unless Intern reports a key added exactly when a map
// has not seen it yet.
func internAll[K comparable](t *testing.T, tab *InternTable[K], keys []K) (ids []int32, col []K) {
	t.Helper()
	seen := map[K]bool{}
	for i, k := range keys {
		id, added := tab.Intern(tab.Hash(k), &col, k)
		if added == seen[k] {
			t.Fatalf("key %d (%v): Intern added=%v, the map oracle says absent=%v", i, k, added, !seen[k])
		}
		seen[k] = true
		ids = append(ids, id)
	}
	return ids, col
}

// internRef is the generic-map oracle: IDs in first-occurrence order.
func internRef[K comparable](keys []K) []int32 {
	m := map[K]int32{}
	ids := make([]int32, len(keys))
	for i, k := range keys {
		id, ok := m[k]
		if !ok {
			id = int32(len(m))
			m[k] = id
		}
		ids[i] = id
	}
	return ids
}

func requireIDs(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d IDs, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: key %d interned as %d, the map oracle says %d", name, i, got[i], want[i])
		}
	}
}

// TestInternTableConstantHash: with every key on one hash, every probe is a
// collision and only the key comparison tells keys apart — IDs must still be
// the oracle's, and absent keys must still miss.
func TestInternTableConstantHash(t *testing.T) {
	var keys []string
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i%97))
	}
	tab := NewInternTable[string](0, func(string) uint64 { return 42 })
	ids, col := internAll(t, &tab, keys)
	requireIDs(t, "constant hash", ids, internRef(keys))
	if len(col) != 97 {
		t.Fatalf("%d distinct keys interned, want 97", len(col))
	}
	for _, absent := range []string{"", "k97", "k-1"} {
		if id := tab.ID(tab.Hash(absent), absent, col); id != -1 {
			t.Fatalf("absent key %q found as %d", absent, id)
		}
	}
}

// TestInternTableGrowth: a table holds up to 0.75 of its slots and doubles on
// the insert that would cross that load; every key keeps its ID across each
// doubling, since growth re-slots from the stored hashes alone.
func TestInternTableGrowth(t *testing.T) {
	tab := NewInternTable[int](0, nil)
	var col []int
	for k := 0; k < 1000; k++ {
		before := len(tab.slots)
		if id := tab.ID(tab.Hash(k), k, col); id != -1 {
			t.Fatalf("key %d found before its insert", k)
		}
		if id, added := tab.Intern(tab.Hash(k), &col, k); !added || id != int32(k) {
			t.Fatalf("key %d interned as (%d, added=%v), want (%d, true)", k, id, added, k)
		}
		grew := len(tab.slots) != before
		if want := (k+1)*4 > before*3; grew != want { // the 0.75 load factor
			t.Fatalf("insert %d into %d slots: grew=%v, want %v", k+1, before, grew, want)
		}
		if grew {
			for j := 0; j <= k; j++ {
				if id := tab.ID(tab.Hash(j), j, col); id != int32(j) {
					t.Fatalf("after growing to %d slots key %d maps to %d", len(tab.slots), j, id)
				}
			}
		}
	}
	if len(tab.slots) != 2048 {
		t.Fatalf("1000 keys in %d slots, want 2048", len(tab.slots))
	}
	// A presized table does not grow before its hint.
	pre := NewInternTable[int](1000, nil)
	size := len(pre.slots)
	internAll(t, &pre, col)
	if len(pre.slots) != size {
		t.Fatalf("a table presized for 1000 keys grew from %d to %d slots", size, len(pre.slots))
	}
}

// TestInternTableSignedZero: -0 and +0 objects compare equal, so they are one
// triple — and one item key — to the table, as to a map.
func TestInternTableSignedZero(t *testing.T) {
	tri := func(v float64) kb.Triple {
		return kb.Triple{Subject: "s", Predicate: "p", Object: kb.NumberObject(v)}
	}
	keys := []kb.Triple{tri(0), tri(math.Copysign(0, -1)), tri(1), tri(math.Copysign(0, -1))}
	tab := NewInternTable(0, HashTriple)
	ids, col := internAll(t, &tab, keys)
	requireIDs(t, "signed zero", ids, []int32{0, 0, 1, 0})
	requireIDs(t, "signed zero oracle", ids, internRef(keys))
	if len(col) != 2 {
		t.Fatalf("%d triples interned, want 2", len(col))
	}
}

// TestInternTablesMatchMap: on random streams over small key spaces (so keys
// repeat and tables grow), every table assigns the map oracle's IDs — strings
// on maphash, triples and items on their word hashes, and ID pairs.
func TestInternTablesMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(5000)
		strs := make([]string, n)
		tris := make([]kb.Triple, n)
		items := make([]kb.DataItem, n)
		pairs := make([][2]int32, n)
		for i := range strs {
			strs[i] = fmt.Sprintf("http://site%d/p%d", rng.Intn(50), rng.Intn(40))
			tris[i] = kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(60))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", rng.Intn(4))),
				Object:    kb.NumberObject(float64(rng.Intn(9) - 4)),
			}
			items[i] = tris[i].Item()
			pairs[i] = [2]int32{int32(rng.Intn(300)), int32(rng.Intn(1 << 20))}
		}
		hint := rng.Intn(n + 1)
		name := fmt.Sprintf("round %d (n=%d, hint=%d)", round, n, hint)

		st := NewInternTable[string](hint, nil)
		ids, _ := internAll(t, &st, strs)
		requireIDs(t, name+" strings", ids, internRef(strs))
		tt := NewInternTable(hint, HashTriple)
		ids, _ = internAll(t, &tt, tris)
		requireIDs(t, name+" triples", ids, internRef(tris))
		it := NewInternTable(hint, HashItem)
		ids, _ = internAll(t, &it, items)
		requireIDs(t, name+" items", ids, internRef(items))
		requireIDs(t, name+" pairs", internPairs(NewPairTable(hint), pairs), internRef(pairs))
	}
}

// internPairs interns pairs through p in stream order, numbering new pairs
// densely.
func internPairs(p PairTable, pairs [][2]int32) []int32 {
	ids := make([]int32, len(pairs))
	next := int32(0)
	for i, k := range pairs {
		id, added := p.Intern(k[0], k[1], next)
		if added {
			next++
		}
		ids[i] = id
	}
	return ids
}

// TestPairSet: the ID-less table answers only whether a pair is new, also
// across growth, and treats (a, b) and (b, a) as different pairs.
func TestPairSet(t *testing.T) {
	p := NewPairSet(0)
	seen := map[[2]int32]bool{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		a, b := int32(rng.Intn(80)), int32(rng.Intn(80))
		if got, want := p.Add(a, b), !seen[[2]int32{a, b}]; got != want {
			t.Fatalf("Add(%d, %d) = %v, want %v", a, b, got, want)
		}
		seen[[2]int32{a, b}] = true
	}
	if p.n != len(seen) {
		t.Fatalf("set holds %d pairs, want %d", p.n, len(seen))
	}
}

// FuzzInternTable: under any key stream — strings cut from the input, on
// maphash or on one constant hash — and any size hint, the table assigns the
// IDs a map[K]int32 assigns; so does the pair table over pairs read from the
// same bytes.
func FuzzInternTable(f *testing.F) {
	f.Add([]byte("abcabcaab"), uint8(0), false)
	f.Add([]byte("\x00\x01\x00\x01\xff\xff\x00"), uint8(3), true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(200), false)
	f.Fuzz(func(t *testing.T, data []byte, hint uint8, degenerate bool) {
		var keys []string
		for i := 0; i < len(data); {
			l := min(int(data[i]%4), len(data)-i)
			keys = append(keys, string(data[i:i+l]))
			i += l + 1
		}
		var hashFn func(string) uint64
		if degenerate {
			hashFn = func(string) uint64 { return 7 }
		}
		tab := NewInternTable(int(hint), hashFn)
		ids, col := internAll(t, &tab, keys)
		requireIDs(t, "strings", ids, internRef(keys))
		rebuilt := BuildInternTable(col, hashFn)
		for id, k := range col {
			if got := rebuilt.ID(rebuilt.Hash(k), k, col); got != int32(id) {
				t.Fatalf("bulk-loaded table maps %q to %d, want %d", k, got, id)
			}
		}
		var pairs [][2]int32
		for i := 0; i+1 < len(data); i += 2 {
			pairs = append(pairs, [2]int32{int32(data[i] % 16), int32(data[i+1])})
		}
		requireIDs(t, "pairs", internPairs(NewPairTable(int(hint)), pairs), internRef(pairs))
	})
}
