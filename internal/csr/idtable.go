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
// first-occurrence) order and only ever extended, so they are as
// append-stable as the graphs' local IDs. Keys intern through an InternTable
// over the key column; the holders are one flat column of K words per key
// (local ID + 1, 0 for a shard that does not hold it), so they list in
// ascending shard order — the cross-shard Pairwise fold order, independent
// of the append history — by construction. That is 4·K bytes per key however
// few shards hold it, for K <= 8 no more than a per-key slice's header and
// smallest heap object, so there is no sparse form.
//
// IdentityTable is the one-graph form: local and global IDs coincide, so
// nothing is materialized and no string is hashed.
type IDTable struct {
	index   InternTable[string]
	keys    []string  // global ID -> key
	l2g     [][]int32 // shard -> local ID -> global ID; nil = identity
	holders []int32   // [g*K+s] = shard s's local ID of g + 1; 0 = not held
}

// NewIDTable returns an empty table over k graphs.
func NewIDTable(k int) *IDTable {
	return &IDTable{index: NewInternTable[string](0, nil), l2g: make([][]int32, k)}
}

// IdentityTable is the table of a single graph whose dense key slice is
// keys: global ID == local ID, one holder each. The slice is retained, not
// copied, and the table cannot be extended.
func IdentityTable(keys []string) *IDTable {
	return &IDTable{keys: keys}
}

// Extend registers shard s's local IDs [known, n) under their keys, after
// every compile/append in shard order, so global IDs are deterministic for
// a given feed and shard count. It allocates nothing but column growth.
func (t *IDTable) Extend(s, n int, key func(int32) string) {
	k := len(t.l2g)
	for local := int32(len(t.l2g[s])); local < int32(n); local++ {
		name := key(local)
		g, added := t.index.Intern(t.index.Hash(name), &t.keys, name)
		if added { // K zero words; not append(make(...)), which allocates under -race
			t.holders = slices.Grow(t.holders, k)[:len(t.holders)+k]
			clear(t.holders[len(t.holders)-k:])
		}
		t.l2g[s] = append(t.l2g[s], g)
		t.holders[int(g)*k+s] = local + 1
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
// order over buf[:0], valid until buf is reused; a buf with room for one
// holder per graph makes the call allocation-free.
func (t *IDTable) Holders(g int, buf []Loc) []Loc {
	buf = buf[:0]
	if t.l2g == nil {
		return append(buf, Loc{Local: int32(g)})
	}
	k := len(t.l2g)
	for s, w := range t.holders[g*k : g*k+k] {
		if w != 0 {
			buf = append(buf, Loc{Shard: int32(s), Local: w - 1})
		}
	}
	return buf
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
