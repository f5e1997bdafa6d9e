package csr

// Delta-aware CSR building.
//
// The append-capable compile pipeline (extract.Compiled.Append,
// fusion.Compiled.Append) extends existing ID spaces instead of recompiling:
// every new element receives an ID strictly greater than every existing one,
// so each group's merged span is its old span followed by the new elements in
// ascending ID order — an ordered merge that never has to interleave.
// AppendByGroup materializes that merge as a fresh (start, ids) pair without
// touching the inputs, so the previous generation's CSR stays valid while the
// new generation is built.

import "runtime"

// ExtendInt32 returns a fresh slice of length n carrying old's prefix — the
// copy-on-extend the append pipeline uses for an ID-indexed column a batch
// rewrites for old IDs (support counts), so the previous generation's array
// stays untouched. Columns that only grow at the end are not copied: the
// interning index extends them in place (see fusion.Compiled.Append).
func ExtendInt32(old []int32, n int) []int32 {
	out := make([]int32, n)
	copy(out, old)
	return out
}

// AppendByGroup merges new elements into an existing CSR adjacency grouped
// by a dense group assignment: start has one span per group, and ids lists
// the element indexes of each group in ascending order. A fresh build is the
// first append, onto the empty CSR (nil, nil).
// oldStart/oldIds is the previous generation's CSR (len(oldStart) =
// oldGroups+1, which may be smaller than nGroups when the append introduced
// new groups — the extra groups have empty old spans). newGroupOf assigns the
// new elements to groups; new element i has ID firstNew+int32(i) where
// firstNew = len(oldIds), so every new ID exceeds every old one and each
// merged span is oldSpan ++ newIDs, still in ascending order — exactly the
// CSR a fresh build makes of the concatenated assignment. The inputs are
// only read; the result is freshly allocated and identical for every workers
// value.
//
// Old spans move in runs: consecutive groups are contiguous in oldIds, and
// their spans shift by one common offset until a group receives new elements,
// so the prefix-sum pass emits one copy per touched group (plus one for the
// tail) instead of one per group — a small batch onto a large CSR is a few
// bulk moves.
//
// Large batches run a parallel counting sort — per-worker counts over
// contiguous chunks, a sequential prefix-sum merge that turns the counts into
// per-worker scatter offsets, then a parallel scatter. Chunks are contiguous
// and ascending and each (worker, group) cell owns a disjoint output range
// ordered by worker, so the parallel result is identical to the sequential
// one.
func AppendByGroup(oldStart, oldIds, newGroupOf []int32, nGroups, workers int) ([]int32, []int32) {
	oldGroups := len(oldStart) - 1
	if oldGroups < 0 {
		oldGroups = 0
	}
	nOld := len(oldIds)
	nNew := len(newGroupOf)
	total := nOld + nNew
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := workers
	// The per-worker count arrays and the sequential prefix-sum merge cost
	// O(workers × nGroups). Near-singleton groupings (nGroups ≈ nNew — e.g. a
	// claim set with almost no corroboration, or a batch small against the
	// groups it lands in) would make that dwarf the O(nNew) counting/scatter
	// work, so clamp workers to keep the merge within a small multiple of
	// nNew.
	if maxW := 4 * nNew / (nGroups + 1); w > maxW {
		w = maxW
	}
	if nNew < ParallelThreshold || w < 1 {
		w = 1
	}

	// Count new elements per (worker, group); the merge below turns each cell
	// into the worker's first output slot past the group's old span.
	counts := make([]int32, w*nGroups)
	ParallelRange(nNew, w, func(wk, lo, hi int) {
		c := counts[wk*nGroups : (wk+1)*nGroups]
		for _, g := range newGroupOf[lo:hi] {
			c[g]++
		}
	})

	start := make([]int32, nGroups+1)
	ids := make([]int32, total)
	run := int32(0)
	// oldIds[runLo:] is not relocated yet; it lands at ids[runDst:].
	runLo, runDst := int32(0), int32(0)
	for g := 0; g < nGroups; g++ {
		start[g] = run
		if g < oldGroups {
			run += oldStart[g+1] - oldStart[g]
		}
		oldEnd := run
		for wk := 0; wk < w; wk++ {
			c := counts[wk*nGroups+g]
			counts[wk*nGroups+g] = run
			run += c
		}
		if run > oldEnd && g < oldGroups {
			// New elements follow g's old span, so the shift changes here:
			// move the run of old spans ending with g's.
			copy(ids[runDst:], oldIds[runLo:oldStart[g+1]])
			runLo, runDst = oldStart[g+1], run
		}
	}
	start[nGroups] = run
	copy(ids[runDst:], oldIds[runLo:])

	// Scatter the new elements after each group's old span; chunks are
	// contiguous and ascending and each (worker, group) cell owns a disjoint
	// range ordered by worker, so ascending ID order is preserved.
	firstNew := int32(nOld)
	ParallelRange(nNew, w, func(wk, lo, hi int) {
		next := counts[wk*nGroups : (wk+1)*nGroups]
		for i := lo; i < hi; i++ {
			g := newGroupOf[i]
			ids[next[g]] = firstNew + int32(i)
			next[g]++
		}
	})
	return start, ids
}
