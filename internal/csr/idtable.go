package csr

import "slices"

// Loc addresses one entity's slice in one graph of a multi-graph (sharded)
// run: the graph index and the entity's local interned ID there.
type Loc struct {
	Shard int32
	Local int32
}

// IDTable is the cross-graph identity map for one interned ID space
// (provenances, sources, extractors) — what the engines' lockstep round
// drivers merge M-step partials through. Global IDs are assigned in (shard,
// first-occurrence) order, with both directions materialized; each entity's
// holders sit in ascending shard order, the fold order of the cross-shard
// Pairwise merges. Appends only ever extend it — global IDs are as
// append-stable as the underlying graphs' local IDs.
//
// IdentityTable is the one-graph form: local and global IDs coincide, so
// nothing is materialized and no string is hashed.
type IDTable struct {
	id   map[string]int32 // key -> global ID
	keys []string         // global ID -> key
	l2g  [][]int32        // shard -> local ID -> global ID; nil = identity
	g2l  [][]Loc          // global ID -> holders in ascending shard order; nil = identity
}

// NewIDTable returns an empty table over k graphs.
func NewIDTable(k int) *IDTable {
	return &IDTable{id: make(map[string]int32), l2g: make([][]int32, k)}
}

// IdentityTable is the table of a single graph whose dense key slice is
// keys: global ID == local ID, one holder each. The slice is retained, not
// copied, and the table cannot be extended.
func IdentityTable(keys []string) *IDTable {
	return &IDTable{keys: keys}
}

// Extend registers shard s's local IDs [known, n) under their keys. Called
// after every compile/append, in shard order, so global IDs are
// deterministic for a given feed and shard count.
func (t *IDTable) Extend(s, n int, key func(int32) string) {
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
		// Insert in ascending shard order (a later append can introduce an
		// existing key to an earlier shard): the fold order of the merge
		// then depends only on which shards hold the key, never on the
		// append history — chunked feeds merge bit-identically to one-shot
		// compiles of the same content.
		hold := t.g2l[g]
		at := len(hold)
		for at > 0 && hold[at-1].Shard > int32(s) {
			at--
		}
		hold = append(hold, Loc{})
		copy(hold[at+1:], hold[at:])
		hold[at] = Loc{Shard: int32(s), Local: local}
		t.g2l[g] = hold
	}
}

// N reports the number of global IDs.
func (t *IDTable) N() int { return len(t.keys) }

// Key names global ID g.
func (t *IDTable) Key(g int) string { return t.keys[g] }

// Keys is the key column, global ID -> key, clipped to N: Extend appends
// beyond it, possibly in place, and never rewrites it, so a caller may keep
// the slice across Extends as the table's state at the time of the call.
func (t *IDTable) Keys() []string { return slices.Clip(t.keys) }

// Global maps shard s's local ID to its global ID.
func (t *IDTable) Global(s, local int) int32 {
	if t.l2g == nil {
		return int32(local)
	}
	return t.l2g[s][local]
}

// Holders lists global ID g's (shard, local) slices in ascending shard
// order. The identity table writes its single holder into one and returns
// it, so the call never allocates; the result is read-only either way.
func (t *IDTable) Holders(g int, one *[1]Loc) []Loc {
	if t.g2l == nil {
		one[0] = Loc{Local: int32(g)}
		return one[:]
	}
	return t.g2l[g]
}

// FoldFloat64 folds one entity's per-graph float partials — vals[shard][local]
// over its holders, in shard order — with the Pairwise tree. A single
// holder's fold is the identity and touches nothing else; otherwise the
// partials are gathered into scratch (reused; capacity of at least the
// graph count avoids allocation).
func FoldFloat64(hold []Loc, vals [][]float64, scratch []float64) float64 {
	if len(hold) == 1 {
		return vals[hold[0].Shard][hold[0].Local]
	}
	scratch = scratch[:0]
	for _, l := range hold {
		scratch = append(scratch, vals[l.Shard][l.Local])
	}
	return Pairwise(scratch, AddFloat64)
}
