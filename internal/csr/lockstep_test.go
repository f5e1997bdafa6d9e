package csr

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// bindK binds k trivial runs (the run is its graph index) whose one-graph
// merge runs on workers workers.
func bindK(t *testing.T, k, workers int) Lockstep[int] {
	t.Helper()
	ls, err := Bind(k, workers, nil, func(s, _ int, _ *int) (int, error) { return s, nil }, func(int) int { return workers })
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// TestLockstepMergeMaxAnyWorkers holds Merge's move to the largest one any
// range reports, at every worker count, with the largest move in the first
// ID range only and in the last one only: a merge that kept one worker's
// max, or lost a range, reads a smaller one. Every ID is in exactly one
// range, and each range gets empty scratch with room for every graph.
func TestLockstepMergeMaxAnyWorkers(t *testing.T) {
	const n = 61
	for _, at := range []int{0, n - 1} {
		moves := make([]float64, n)
		for g := range moves {
			moves[g] = float64(g%7) * 1e-3
		}
		moves[at] = 0.5
		for _, k := range []int{1, 3} {
			for workers := 1; workers <= 7; workers++ {
				ls := bindK(t, k, workers)
				var mu sync.Mutex
				seen := make([]int, n)
				got := ls.Merge(n, func(lo, hi int, parts []float64) float64 {
					if len(parts) != 0 || cap(parts) < k {
						t.Errorf("%d graphs: scratch of length %d, capacity %d", k, len(parts), cap(parts))
					}
					mu.Lock()
					for g := lo; g < hi; g++ {
						seen[g]++
					}
					mu.Unlock()
					return slices.Max(moves[lo:hi])
				})
				if got != 0.5 {
					t.Errorf("%d graphs, largest move at %d, %d workers: merge moved %v, want 0.5", k, at, workers, got)
				}
				for g, c := range seen {
					if c != 1 {
						t.Fatalf("%d graphs, %d workers: ID %d merged %d times", k, workers, g, c)
					}
				}
				// The per-worker moves are reused: a merge that moves nothing moves 0.
				if got := ls.Merge(n, func(int, int, []float64) float64 { return 0 }); got != 0 {
					t.Errorf("%d graphs, %d workers: a merge that moves nothing moved %v", k, workers, got)
				}
			}
		}
	}
}

// TestLockstepMergeOneHolderIdentity holds a one-graph merge to the
// identity: every ID's one holder is itself, and its fold is its partial,
// bit for bit.
func TestLockstepMergeOneHolderIdentity(t *testing.T) {
	vals := []float64{0.1, math.Copysign(0, -1), 1e-300, 0.3, math.Inf(1), 7}
	tab := IdentityTable(make([]string, len(vals)))
	for workers := 1; workers <= 7; workers++ {
		ls := bindK(t, 1, workers)
		got := make([]float64, len(vals))
		ls.Merge(tab.N(), func(lo, hi int, parts []float64) float64 {
			for g := lo; g < hi; g++ {
				hold := tab.Holders(g, make([]Loc, 0, 1))
				if len(hold) != 1 || hold[0] != (Loc{Local: int32(g)}) {
					t.Errorf("%d workers: ID %d holders %v", workers, g, hold)
				}
				got[g] = FoldFloat64(hold, [][]float64{vals}, parts)
			}
			return 0
		})
		for g := range vals {
			if math.Float64bits(got[g]) != math.Float64bits(vals[g]) {
				t.Errorf("%d workers: ID %d folded to %v, want %v", workers, g, got[g], vals[g])
			}
		}
	}
}

// TestLockstepRounds holds the round loop to its two exits: it stops at the
// first round whose move is under the tolerance, and otherwise at the cap;
// either way one move per round run.
func TestLockstepRounds(t *testing.T) {
	for _, tc := range []struct {
		limit int
		moves []float64
		want  int
	}{
		{10, []float64{0.5, 0.2, 1e-5, 0.3}, 3},    // converges in round 3
		{10, []float64{1e-5}, 1},                   // converges at once
		{2, []float64{0.5, 0.2, 1e-5}, 2},          // the cap bites first
		{4, []float64{0.5, 0.4, 0.3, 0.2, 0.1}, 4}, // never converges
		{3, []float64{0.5, 0.4, 1e-4}, 3},          // a move at the tolerance is not under it
	} {
		ran := 0
		moves := Rounds(tc.limit, 1e-4, func(r int) float64 {
			if r != ran {
				t.Fatalf("round %d called as round %d", ran, r)
			}
			ran++
			return tc.moves[r]
		})
		if len(moves) != tc.want || ran != tc.want {
			t.Errorf("limit %d, moves %v: ran %d rounds, recorded %d moves, want %d", tc.limit, tc.moves, ran, len(moves), tc.want)
		}
		for r, m := range moves {
			if m != tc.moves[r] {
				t.Errorf("limit %d: move %d is %v, want %v", tc.limit, r, m, tc.moves[r])
			}
		}
	}
}

// TestLockstepHandoff holds the hand-off to one taker: a Take for another
// count gets nil and leaves the engines, the right count takes them, and
// every Take after that gets nil.
func TestLockstepHandoff(t *testing.T) {
	var h Handoff[*int]
	if h.Take(0) != nil {
		t.Fatal("the zero Handoff handed something on")
	}
	a, b := new(int), new(int)
	h.Give([]*int{a, b})
	if h.Take(3) != nil || h.Take(1) != nil {
		t.Fatal("a Take for the wrong count got engines")
	}
	if got := h.Take(2); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Take(2) got %v", got)
	}
	if h.Take(2) != nil || h.Held() != nil {
		t.Fatal("a second Take got the engines the first one took")
	}
}

// TestLockstepBind holds Bind to its split, its engines and its error order:
// each run sees the share SplitWorkers gives it (one graph: the workers as
// handed in) and its own recycled engine, and of several failing graphs the
// first in graph order is reported.
func TestLockstepBind(t *testing.T) {
	for _, tc := range []struct{ k, workers, within, across, merge int }{
		{1, 0, 0, 1, 9}, {1, 5, 5, 1, 9}, {4, 2, 1, 2, 2}, {4, 13, 3, 4, 12}, {3, 7, 2, 3, 6},
	} {
		ls, err := Bind(tc.k, tc.workers, nil, func(s, within int, _ *int) (int, error) {
			if within != tc.within {
				t.Errorf("k=%d workers=%d: graph %d bound with %d workers, want %d", tc.k, tc.workers, s, within, tc.within)
			}
			return s, nil
		}, func(int) int { return 9 })
		if err != nil {
			t.Fatal(err)
		}
		if len(ls.Runs) != tc.k || ls.Across != tc.across || ls.merge != tc.merge {
			t.Errorf("k=%d workers=%d: %d runs, across %d, merge on %d; want %d, %d, %d", tc.k, tc.workers, len(ls.Runs), ls.Across, ls.merge, tc.k, tc.across, tc.merge)
		}
	}
	recycled := []*int{new(int), new(int), new(int)}
	if _, err := Bind(3, 2, recycled, func(s, _ int, e *int) (int, error) {
		if e != recycled[s] {
			t.Errorf("graph %d bound on another graph's engine", s)
		}
		return s, nil
	}, func(int) int { return 1 }); err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 4; workers++ {
		_, err := Bind(5, workers, nil, func(s, _ int, _ *int) (int, error) {
			if s == 1 || s == 3 {
				return 0, fmt.Errorf("graph %d", s)
			}
			return s, nil
		}, func(int) int { return 1 })
		if err == nil || err.Error() != "graph 1" {
			t.Errorf("%d workers: error %v, want graph 1's", workers, err)
		}
	}
}

func TestLockstepCheckGraphs(t *testing.T) {
	g := new(int)
	for _, tc := range []struct {
		graphs []*int
		tables bool
		ok     bool
	}{
		{nil, true, false},
		{[]*int{g}, false, true},
		{[]*int{g, nil}, true, false},
		{[]*int{g, g}, false, false},
		{[]*int{g, g}, true, true},
	} {
		if err := CheckGraphs(tc.graphs, tc.tables); (err == nil) != tc.ok {
			t.Errorf("%d graphs, tables %v: error %v", len(tc.graphs), tc.tables, err)
		}
	}
}
