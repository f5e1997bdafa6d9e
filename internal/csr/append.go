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
// copy-on-extend the append pipeline uses to grow an ID-indexed column
// while the previous generation's array stays untouched.
func ExtendInt32(old []int32, n int) []int32 {
	out := make([]int32, n)
	copy(out, old)
	return out
}

// AppendByGroup merges new elements into an existing ByGroup adjacency.
// oldStart/oldIds is the previous generation's CSR (len(oldStart) =
// oldGroups+1, which may be smaller than nGroups when the append introduced
// new groups — the extra groups have empty old spans). newGroupOf assigns the
// new elements to groups; new element i has ID firstNew+int32(i) where
// firstNew = len(oldIds), so every new ID exceeds every old one and each
// merged span is oldSpan ++ newIDs, still in ascending order — exactly the
// CSR ByGroup would build over the concatenated assignment. The inputs are
// only read; the result is freshly allocated and identical for every workers
// value.
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
	run := int32(0)
	for g := 0; g < nGroups; g++ {
		start[g] = run
		if g < oldGroups {
			run += oldStart[g+1] - oldStart[g]
		}
		for wk := 0; wk < w; wk++ {
			c := counts[wk*nGroups+g]
			counts[wk*nGroups+g] = run
			run += c
		}
	}
	start[nGroups] = run

	ids := make([]int32, total)
	// Copy every group's old span to its new position, in parallel over
	// groups (each group owns a disjoint output range).
	if oldGroups > 0 {
		gw := workers
		if oldGroups < ParallelThreshold {
			gw = 1
		}
		ParallelRange(oldGroups, gw, func(_, lo, hi int) {
			for g := lo; g < hi; g++ {
				copy(ids[start[g]:], oldIds[oldStart[g]:oldStart[g+1]])
			}
		})
	}
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
