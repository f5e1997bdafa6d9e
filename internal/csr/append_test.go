package csr

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAppendByGroupMatchesByGroup pins the delta builder's contract: merging
// new rows into an existing CSR produces exactly the adjacency a fresh build
// (AppendByGroup onto nil, nil) makes of the concatenated assignment, for any
// worker count and for appends that introduce new groups.
func TestAppendByGroupMatchesByGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		nOld, nNew, oldGroups, newGroups int
	}{
		{0, 0, 0, 0},
		{0, 10, 0, 3},
		{100, 0, 7, 7},
		{100, 37, 7, 7},
		{1000, 250, 19, 31},     // new groups appear
		{50000, 5000, 211, 307}, // past ParallelThreshold
		{50000, 20000, 11, 11},  // dense groups
	}
	for _, tc := range cases {
		oldOf := make([]int32, tc.nOld)
		for i := range oldOf {
			oldOf[i] = int32(rng.Intn(tc.oldGroups))
		}
		newOf := make([]int32, tc.nNew)
		for i := range newOf {
			newOf[i] = int32(rng.Intn(tc.newGroups))
		}
		oldStart, oldIds := AppendByGroup(nil, nil, oldOf, tc.oldGroups, 0)
		all := append(append([]int32{}, oldOf...), newOf...)
		wantStart, wantIds := AppendByGroup(nil, nil, all, tc.newGroups, 0)
		for _, workers := range []int{1, 2, 3, 7, 8} {
			gotStart, gotIds := AppendByGroup(oldStart, oldIds, newOf, tc.newGroups, workers)
			if !reflect.DeepEqual(gotStart, wantStart) {
				t.Fatalf("case %+v workers=%d: start mismatch", tc, workers)
			}
			if !equalIDs(gotIds, wantIds) {
				t.Fatalf("case %+v workers=%d: ids mismatch", tc, workers)
			}
		}
	}
}

// TestAppendByGroupProperty is the randomised form of the contract:
// AppendByGroup ≡ a fresh build of the concatenated assignment, for workers
// 1..4, over the shapes that decide how the old spans are relocated — a batch
// small against nGroups (long untouched runs moved wholesale), a batch large
// against it (every group touched, one copy each), an empty old CSR, an empty
// batch, new groups only, and a batch touching only the last old group or
// only the first (a run ending, or starting, at the array's edge).
func TestAppendByGroupProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pick := func(n int, of func() int32) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = of()
		}
		return out
	}
	uniform := func(groups int) func() int32 {
		return func() int32 { return int32(rng.Intn(groups)) }
	}
	for trial := 0; trial < 300; trial++ {
		oldGroups := rng.Intn(40)
		nOld := 0
		if oldGroups > 0 && trial%11 != 0 { // every 11th: groups but no elements
			nOld = rng.Intn(6 * oldGroups)
		}
		nGroups := oldGroups + rng.Intn(3)*rng.Intn(10)
		var newOf []int32
		switch shape := trial % 6; {
		case nGroups == 0:
		case shape == 0: // small against nGroups
			newOf = pick(rng.Intn(4), uniform(nGroups))
		case shape == 1: // large against nGroups
			newOf = pick(20*nGroups+rng.Intn(50), uniform(nGroups))
		case shape == 2 && oldGroups > 0: // only the last old group
			newOf = pick(1+rng.Intn(5), func() int32 { return int32(oldGroups - 1) })
		case shape == 3 && oldGroups > 0: // only the first group
			newOf = pick(1+rng.Intn(5), func() int32 { return 0 })
		case shape == 4 && nGroups > oldGroups: // new groups only
			newOf = pick(1+rng.Intn(30), func() int32 { return int32(oldGroups + rng.Intn(nGroups-oldGroups)) })
		default:
			newOf = pick(rng.Intn(3*nGroups+1), uniform(nGroups))
		}
		var oldOf []int32
		if oldGroups > 0 {
			oldOf = pick(nOld, uniform(oldGroups))
		}
		var oldStart, oldIds []int32
		if trial%7 != 0 { // every 7th: a nil old CSR rather than an empty one
			oldStart, oldIds = AppendByGroup(nil, nil, oldOf, oldGroups, 1)
		} else {
			oldOf, oldGroups = nil, 0
		}
		// The oracle is the definition, not the counting sort under test:
		// each group's elements in ascending order, groups in order.
		all := append(append([]int32{}, oldOf...), newOf...)
		wantStart, wantIds := make([]int32, nGroups+1), make([]int32, 0, len(all))
		for g := 0; g < nGroups; g++ {
			for i, of := range all {
				if int(of) == g {
					wantIds = append(wantIds, int32(i))
				}
			}
			wantStart[g+1] = int32(len(wantIds))
		}
		if s, ids := AppendByGroup(nil, nil, all, nGroups, 1); !reflect.DeepEqual(s, wantStart) || !equalIDs(ids, wantIds) {
			t.Fatalf("trial %d: a fresh build disagrees with the definition", trial)
		}
		for workers := 1; workers <= 4; workers++ {
			gotStart, gotIds := AppendByGroup(oldStart, oldIds, newOf, nGroups, workers)
			if !reflect.DeepEqual(gotStart, wantStart) || !equalIDs(gotIds, wantIds) {
				t.Fatalf("trial %d workers=%d (old %d in %d groups, new %v into %d groups):\n got %v %v\nwant %v %v",
					trial, workers, len(oldOf), oldGroups, newOf, nGroups, gotStart, gotIds, wantStart, wantIds)
			}
		}
	}
}

// TestAppendByGroupLeavesInputsIntact guards the generational contract: the
// previous generation's CSR must stay valid after an append builds the next.
func TestAppendByGroupLeavesInputsIntact(t *testing.T) {
	oldOf := []int32{2, 0, 1, 0, 2, 2}
	oldStart, oldIds := AppendByGroup(nil, nil, oldOf, 3, 0)
	startCopy := append([]int32{}, oldStart...)
	idsCopy := append([]int32{}, oldIds...)
	newOf := []int32{1, 3, 0, 1}
	AppendByGroup(oldStart, oldIds, newOf, 4, 4)
	if !reflect.DeepEqual(oldStart, startCopy) || !reflect.DeepEqual(oldIds, idsCopy) {
		t.Fatal("AppendByGroup mutated its inputs")
	}
}

func equalIDs(a, b []int32) bool {
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

// TestMergeKeysMatchesSequentialFold pins the pairwise merge's determinism
// contract: the parallel tree must reproduce the sequential left-to-right
// fold's global first-occurrence order for any shard and worker count.
func TestMergeKeysMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nShards := range []int{1, 2, 3, 5, 8, 13} {
		shards := make([][]string, nShards)
		for s := range shards {
			n := rng.Intn(200)
			seen := map[string]bool{}
			for i := 0; i < n; i++ {
				k := string(rune('a' + rng.Intn(26)))
				k += string(rune('a' + rng.Intn(26)))
				if !seen[k] {
					seen[k] = true
					shards[s] = append(shards[s], k)
				}
			}
		}
		// Sequential fold: walk shards in order, keep first occurrences.
		var want []string
		wantIdx := map[string]int32{}
		for _, sh := range shards {
			for _, k := range sh {
				if _, ok := wantIdx[k]; !ok {
					wantIdx[k] = int32(len(want))
					want = append(want, k)
				}
			}
		}
		for _, workers := range []int{1, 2, 4, 8} {
			keys, idx := MergeKeys(shards, workers)
			if !reflect.DeepEqual(keys, want) && !(len(keys) == 0 && len(want) == 0) {
				t.Fatalf("nShards=%d workers=%d: keys mismatch:\n got %v\nwant %v", nShards, workers, keys, want)
			}
			if len(idx) != len(wantIdx) {
				t.Fatalf("nShards=%d workers=%d: index size %d, want %d", nShards, workers, len(idx), len(wantIdx))
			}
			for k, id := range wantIdx {
				if idx[k] != id {
					t.Fatalf("nShards=%d workers=%d: idx[%q] = %d, want %d", nShards, workers, k, idx[k], id)
				}
			}
		}
	}
}

// TestMergeKeysLeavesShardsIntact guards against the merge appending into a
// shard's backing array.
func TestMergeKeysLeavesShardsIntact(t *testing.T) {
	a := make([]string, 2, 8)
	a[0], a[1] = "x", "y"
	b := []string{"y", "z"}
	shards := [][]string{a, b}
	MergeKeys(shards, 2)
	if a[0] != "x" || a[1] != "y" || len(a) != 2 {
		t.Fatal("MergeKeys mutated a shard")
	}
}

// TestShardInternRule states which (batch size, workers) pairs take the
// shard-and-merge interning pass, so a change to the rule is a visible diff.
func TestShardInternRule(t *testing.T) {
	for _, c := range []struct {
		n, workers int
		want       bool
	}{
		{1 << 14, 4, true}, {1 << 20, 64, true},
		{1<<14 - 1, 4, false}, {1 << 20, 3, false}, {1 << 20, 2, false}, {1 << 20, 1, false}, {0, 8, false},
	} {
		if got := ShardIntern(c.n, c.workers); got != c.want {
			t.Errorf("ShardIntern(%d, %d) = %v, want %v", c.n, c.workers, got, c.want)
		}
	}
}
