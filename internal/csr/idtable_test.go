package csr

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestIDTableExtend: global IDs follow (shard, first-occurrence) order, and
// a key's holders stay in ascending shard order even when a later Extend
// introduces it to an earlier shard — the fold order of the cross-shard
// merges must depend on which shards hold a key, never on append history.
func TestIDTableExtend(t *testing.T) {
	shardKeys := [][]string{{"a", "b"}, {"b", "c"}}
	tab := NewIDTable(2)
	extend := func(s int) {
		tab.Extend(s, len(shardKeys[s]), func(l int32) string { return shardKeys[s][l] })
	}
	extend(0)
	extend(1)
	shardKeys[0] = append(shardKeys[0], "c") // an append brings c to shard 0 after shard 1 had it
	extend(0)
	extend(0) // nothing new: a no-op

	if tab.N() != 3 || tab.Key(0) != "a" || tab.Key(1) != "b" || tab.Key(2) != "c" {
		t.Fatalf("global order = %v", tab.keys)
	}
	if g := []int32{tab.Global(0, 0), tab.Global(0, 1), tab.Global(0, 2), tab.Global(1, 0), tab.Global(1, 1)}; !reflect.DeepEqual(g, []int32{0, 1, 2, 1, 2}) {
		t.Errorf("local -> global = %v", g)
	}
	buf := make([]Loc, 0, 2)
	for g, want := range [][]Loc{
		{{Shard: 0, Local: 0}},
		{{Shard: 0, Local: 1}, {Shard: 1, Local: 0}},
		{{Shard: 0, Local: 2}, {Shard: 1, Local: 1}},
	} {
		if got := tab.Holders(g, buf); !reflect.DeepEqual(got, want) {
			t.Errorf("holders of %q = %v, want %v", tab.Key(g), got, want)
		}
	}
}

// TestIdentityTable: one graph's table is its key slice — local == global,
// one holder each, nothing materialized.
func TestIdentityTable(t *testing.T) {
	keys := []string{"x", "y", "z"}
	tab := IdentityTable(keys)
	if tab.N() != 3 || tab.Key(2) != "z" || tab.Global(0, 1) != 1 {
		t.Fatalf("identity table: n=%d key(2)=%q global(0,1)=%d", tab.N(), tab.Key(2), tab.Global(0, 1))
	}
	if got := tab.Holders(2, make([]Loc, 0, 1)); len(got) != 1 || got[0] != (Loc{Shard: 0, Local: 2}) {
		t.Errorf("identity holders of 2 = %v", got)
	}
	if tab.l2g != nil || tab.holders != nil {
		t.Error("identity table materialized an ID array")
	}
}

// TestFoldFloat64: the fold gathers a holder list's partials in shard order
// and folds them with the Pairwise tree; one holder is the identity.
func TestFoldFloat64(t *testing.T) {
	vals := [][]float64{{0.1, 0.2}, {0.3}, {0.7, 1e-17}}
	hold := []Loc{{Shard: 0, Local: 1}, {Shard: 1, Local: 0}, {Shard: 2, Local: 1}}
	want := Pairwise([]float64{0.2, 0.3, 1e-17}, AddFloat64)
	if got := FoldFloat64(hold, vals, make([]float64, 0, 3)); got != want {
		t.Errorf("three-holder fold = %v, want %v", got, want)
	}
	if got := FoldFloat64(hold[2:], vals, nil); got != 1e-17 {
		t.Errorf("one-holder fold = %v, want the partial itself", got)
	}
}

// idTableRef is the table FuzzIDTable holds IDTable to: a key map and, per
// global ID, a holder slice kept in ascending shard order by insertion.
type idTableRef struct {
	id   map[string]int32
	keys []string
	l2g  [][]int32
	g2l  [][]Loc
}

func (t *idTableRef) extend(s, n int, key func(int32) string) {
	for local := int32(len(t.l2g[s])); local < int32(n); local++ {
		k := key(local)
		g, ok := t.id[k]
		if !ok {
			g = int32(len(t.keys))
			t.id[k] = g
			t.keys = append(t.keys, k)
			t.g2l = append(t.g2l, nil)
		}
		t.l2g[s] = append(t.l2g[s], g)
		hold := t.g2l[g]
		at := len(hold)
		for at > 0 && hold[at-1].Shard > int32(s) {
			at--
		}
		t.g2l[g] = slices.Insert(hold, at, Loc{Shard: int32(s), Local: local})
	}
}

// FuzzIDTable: under any script of (shard, batch) Extends over 1..6 shards
// — keys drawn from a small alphabet, so a key recurs across shards and
// reaches an earlier shard after a later one — the table numbers every key,
// maps every local ID and lists every key's holders as the map-and-sorted-
// slices table does, after every step.
func FuzzIDTable(f *testing.F) {
	f.Add([]byte{3, 2, 2, 5, 6, 0, 3, 5, 6, 7, 1, 1, 9, 0, 2, 9, 5})
	f.Add([]byte{1, 0, 4, 1, 2, 3, 4, 0, 4, 4, 3, 2, 1})
	f.Add([]byte("\x05the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%6
		tab, ref := NewIDTable(k), &idTableRef{id: map[string]int32{}, l2g: make([][]int32, k)}
		shardKeys := make([][]string, k)
		buf := make([]Loc, 0, k)
		for i := 1; i+1 < len(data); {
			s, n := int(data[i])%k, int(data[i+1])%5
			i += 2
			for ; n > 0 && i < len(data); n, i = n-1, i+1 {
				if key := fmt.Sprintf("k%d", data[i]%24); !slices.Contains(shardKeys[s], key) {
					shardKeys[s] = append(shardKeys[s], key) // a graph interns a key once
				}
			}
			keyOf := func(l int32) string { return shardKeys[s][l] }
			tab.Extend(s, len(shardKeys[s]), keyOf)
			ref.extend(s, len(shardKeys[s]), keyOf)

			if tab.N() != len(ref.keys) || !slices.Equal(tab.Keys(), ref.keys) {
				t.Fatalf("keys %v, want %v", tab.Keys(), ref.keys)
			}
			for s, l2g := range ref.l2g {
				for l, want := range l2g {
					if got := tab.Global(s, l); got != want {
						t.Fatalf("shard %d local %d is global %d, want %d", s, l, got, want)
					}
				}
			}
			for g, want := range ref.g2l {
				if got := tab.Holders(g, buf); !slices.Equal(got, want) {
					t.Fatalf("%q held by %v, want %v", ref.keys[g], got, want)
				}
			}
		}
	})
}

// TestIDTableExtendAllocatesForTheBatch: extending a large table by a batch
// allocates for the batch's keys only through the columns' amortised growth
// — no allocation per key. On a K=4 table of 102 400 keys, a round that
// brings 64 new keys to each shard averages at most one allocation.
func TestIDTableExtendAllocatesForTheBatch(t *testing.T) {
	const k, head, batch, runs = 4, 25_600, 64, 100
	shardKeys := make([][]string, k)
	for s := range shardKeys {
		for i := range head + (runs+1)*batch {
			shardKeys[s] = append(shardKeys[s], fmt.Sprintf("shard%d/key%d", s, i))
		}
	}
	tab := NewIDTable(k)
	n := head
	extendAll := func() {
		for s := range k {
			tab.Extend(s, n, func(l int32) string { return shardKeys[s][l] })
		}
	}
	extendAll()
	if tab.N() != k*head {
		t.Fatalf("head has %d keys, want %d", tab.N(), k*head)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		n += batch
		extendAll()
	})
	if tab.N() != k*(head+(runs+1)*batch) {
		t.Fatalf("table has %d keys after the rounds, want %d", tab.N(), k*(head+(runs+1)*batch))
	}
	if allocs > 1 {
		t.Errorf("a round of %d new keys per shard allocates %v times, want at most 1", batch, allocs)
	}
}
