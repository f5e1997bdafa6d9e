package extract

import "slices"

// Hit-list IDs: every statement's extractor list, in its stored
// first-extraction order, named by a dense ID — two statements share an ID
// exactly when their lists are equal. A feed has few extractors, so the
// lists take few values (56 distinct ones over the 130 920 statements of the
// 150k seed-42 bench feed), and the two-layer E-step, whose statement
// probability is a function of the statement's source and of its ordered
// list, computes each probability once per distinct input instead of once
// per statement (see twolayer's layer-1 memo).
//
// The IDs come from one listTable in the interning index. A compile interns
// the final lists in statement order; an Append copies its parent's column,
// re-interns the statements whose list the batch grew and interns the new
// ones — O(batch + grown) table work. An ID is assigned when its list is
// first interned and keeps it, also once no statement holds that list any
// more, so the numbering follows the append history: it is not a function
// of the graph's value, and it stays out of the snapshot and of graph
// equality. An index rebuilt from a graph (a decoded one, or a second Append
// on a generation) renumbers from the lists, as a compile would.

// listTable interns int32 lists into dense IDs: open addressing over (hash,
// ID+1) slots like csr.InternTable, with the interned lists stored back to
// back. The zero table is empty and ready for use.
type listTable struct {
	start  []int32 // ID -> offset into flat; len IDs+1 once anything is interned
	flat   []int32
	hashes []uint64
	slots  []int32 // ID+1; 0 marks an empty slot
	mask   uint64
}

// n reports the number of IDs issued.
func (t *listTable) n() int { return max(len(t.start)-1, 0) }

// hashList folds a list into one word, element by element in order, so a
// list and its permutations hash apart.
func hashList(l []int32) uint64 {
	const prime = 0x9E3779B97F4A7C15
	h := uint64(len(l)) * prime
	for _, x := range l {
		h = (h ^ uint64(uint32(x))) * prime
		h ^= h >> 32
	}
	return h
}

// intern returns the ID of list, issuing the next one if the list is new.
// The table copies the list; the caller's slice is not retained.
func (t *listTable) intern(list []int32) int32 {
	if (t.n()+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	h := hashList(list)
	i := h & t.mask
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if t.hashes[i] == h && slices.Equal(t.flat[t.start[s-1]:t.start[s]], list) {
			return s - 1
		}
		i = (i + 1) & t.mask
	}
	if len(t.start) == 0 {
		t.start = append(t.start, 0)
	}
	id := int32(t.n())
	t.flat = append(t.flat, list...)
	t.start = append(t.start, int32(len(t.flat)))
	t.hashes[i], t.slots[i] = h, id+1
	return id
}

// grow doubles the slot arrays (16 from empty), re-slotting every ID from its
// stored hash.
func (t *listTable) grow() {
	size := max(2*len(t.slots), 16)
	hashes, slots := make([]uint64, size), make([]int32, size)
	mask := uint64(size - 1)
	for j, s := range t.slots {
		if s == 0 {
			continue
		}
		i := t.hashes[j] & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		hashes[i], slots[i] = t.hashes[j], s
	}
	t.hashes, t.slots, t.mask = hashes, slots, mask
}

// numberHitLists returns g's hit-list column under idx's table: the column
// of the generation idx last numbered (idx.hitLists, nStOld entries) copied,
// with the statements in grown — whose lists the batch extended — and every
// statement from nStOld on interned. The column becomes idx's too. The
// previous generation's column is only read, and g is not written.
func (g *Compiled) numberHitLists(idx *extractIndex, nStOld int, grown []int32) []int32 {
	col := make([]int32, len(g.stSource))
	copy(col, idx.hitLists[:nStOld])
	for _, si := range grown {
		col[si] = idx.lists.intern(g.StatementExtractors(si))
	}
	// Consecutive statements often share a list (a feed lists a page's
	// extractions together), so an equal neighbour skips the hash.
	var prev []int32
	id := int32(-1)
	for si := nStOld; si < len(col); si++ {
		list := g.StatementExtractors(int32(si))
		if id < 0 || !slices.Equal(list, prev) {
			prev, id = list, idx.lists.intern(list)
		}
		col[si] = id
	}
	idx.hitLists = col
	return col
}
