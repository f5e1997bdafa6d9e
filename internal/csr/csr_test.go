package csr

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestByGroupParallelMatchesSequential is the property test for the parallel
// counting sort: for any group assignment and any worker count, a fresh
// AppendByGroup (onto nil, nil) must return exactly the sequential adjacency
// — same spans, same ascending ID order within every group.
func TestByGroupParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		n, nGroups int
	}{
		{0, 0},
		{1, 1},
		{100, 7},
		{ParallelThreshold - 1, 64},   // just below the parallel cutoff
		{ParallelThreshold + 333, 1},  // one group, all workers collide
		{ParallelThreshold + 333, 64}, // generic parallel case
		{3 * ParallelThreshold, 10000},
		{2*ParallelThreshold + 17, 2*ParallelThreshold + 17}, // nGroups == n
	}
	for _, tc := range cases {
		groupOf := make([]int32, tc.n)
		for i := range groupOf {
			groupOf[i] = int32(rng.Intn(max(tc.nGroups, 1)))
		}
		wantStart, wantIDs := byGroupSeq(groupOf, tc.nGroups)
		for _, workers := range []int{1, 2, 3, 4, 7, 8, 16, 61} {
			gotStart, gotIDs := AppendByGroup(nil, nil, groupOf, tc.nGroups, workers)
			if !equalInt32(gotStart, wantStart) {
				t.Fatalf("n=%d groups=%d workers=%d: start mismatch", tc.n, tc.nGroups, workers)
			}
			if !equalInt32(gotIDs, wantIDs) {
				t.Fatalf("n=%d groups=%d workers=%d: ids mismatch", tc.n, tc.nGroups, workers)
			}
		}
	}
}

// TestByGroupInvariants checks the CSR contract directly on a parallel build:
// spans partition the input and every group's IDs are ascending members of
// that group.
func TestByGroupInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, nGroups := ParallelThreshold*2, 517
	groupOf := make([]int32, n)
	for i := range groupOf {
		groupOf[i] = int32(rng.Intn(nGroups))
	}
	start, ids := AppendByGroup(nil, nil, groupOf, nGroups, 8)
	if len(start) != nGroups+1 || int(start[nGroups]) != n || len(ids) != n {
		t.Fatalf("bad shape: len(start)=%d start[last]=%d len(ids)=%d", len(start), start[nGroups], len(ids))
	}
	seen := make([]bool, n)
	for g := 0; g < nGroups; g++ {
		prev := int32(-1)
		for _, id := range ids[start[g]:start[g+1]] {
			if groupOf[id] != int32(g) {
				t.Fatalf("group %d contains element %d of group %d", g, id, groupOf[id])
			}
			if id <= prev {
				t.Fatalf("group %d not ascending: %d after %d", g, id, prev)
			}
			prev = id
			if seen[id] {
				t.Fatalf("element %d appears twice", id)
			}
			seen[id] = true
		}
	}
}

// byGroupSeq is the textbook sequential counting sort the parallel builder is
// checked against.
func byGroupSeq(groupOf []int32, nGroups int) (start, ids []int32) {
	start = make([]int32, nGroups+1)
	for _, p := range groupOf {
		start[p+1]++
	}
	for i := 0; i < nGroups; i++ {
		start[i+1] += start[i]
	}
	ids = make([]int32, len(groupOf))
	next := make([]int32, nGroups)
	copy(next, start[:nGroups])
	for i, p := range groupOf {
		ids[next[p]] = int32(i)
		next[p]++
	}
	return start, ids
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestSplitWorkers states the parts-first split the round drivers share and
// that ParallelEach visits every index once.
func TestSplitWorkers(t *testing.T) {
	for _, tc := range []struct{ n, workers, across, within int }{
		{4, 1, 1, 1}, {4, 2, 2, 1}, {4, 4, 4, 1}, {4, 7, 4, 1}, {4, 8, 4, 2}, {2, 7, 2, 3}, {1, 6, 1, 6}, {0, 3, 1, 3},
	} {
		across, within := SplitWorkers(tc.n, tc.workers)
		if across != tc.across || within != tc.within {
			t.Errorf("SplitWorkers(%d, %d) = %d, %d; want %d, %d", tc.n, tc.workers, across, within, tc.across, tc.within)
		}
	}
	if across, within := SplitWorkers(3, 0); across != min(3, runtime.GOMAXPROCS(0)) || within < 1 {
		t.Errorf("SplitWorkers(3, 0) = %d, %d at GOMAXPROCS %d", across, within, runtime.GOMAXPROCS(0))
	}
	for _, across := range []int{1, 2, 5} {
		seen := make([]int32, 11)
		ParallelEach(len(seen), across, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, n := range seen {
			if n != 1 {
				t.Errorf("ParallelEach(%d, %d) visited %d %d times", len(seen), across, i, n)
			}
		}
	}
}
