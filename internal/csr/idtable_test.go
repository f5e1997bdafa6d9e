package csr

import (
	"reflect"
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
	var one [1]Loc
	for g, want := range [][]Loc{
		{{Shard: 0, Local: 0}},
		{{Shard: 0, Local: 1}, {Shard: 1, Local: 0}},
		{{Shard: 0, Local: 2}, {Shard: 1, Local: 1}},
	} {
		if got := tab.Holders(g, &one); !reflect.DeepEqual(got, want) {
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
	var one [1]Loc
	if got := tab.Holders(2, &one); len(got) != 1 || got[0] != (Loc{Shard: 0, Local: 2}) {
		t.Errorf("identity holders of 2 = %v", got)
	}
	if tab.id != nil || tab.l2g != nil || tab.g2l != nil {
		t.Error("identity table materialized a map or an ID array")
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
