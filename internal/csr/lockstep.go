package csr

import (
	"fmt"
	"slices"
	"sync"
)

// The lockstep EM skeleton.
//
// Both engines' round drivers (fusion.FuseLockstep, twolayer.FuseLockstep)
// run Figure 8's round — score, re-estimate, merge — over 1..K compiled
// graphs, one step engine (a run) per graph, on this skeleton: the argument
// check (CheckGraphs), binding the runs (Bind), a stage over the graphs
// (ParallelEach, Lockstep.Across at a time), the merge over global IDs
// (Merge), the round loop (Rounds) and the hand-off of the engines to the
// next generation (Handoff). The model keeps its E-steps, partials, update
// formulas and starting parameters.
//
// The worker split. Workers bounds the whole call. One graph gets all of it
// for its own loops, exactly as handed in. K graphs step side by side,
// min(K, Workers) at a time, each with what is left (SplitWorkers), so
// binding and every graph-local stage is one fork-join over the graphs, not
// several per graph over a Kth of the data. A merge runs on the workers the
// graphs took together; with one graph, on the run's own. No result depends
// on either split: a run touches only its own engine, an engine's output
// never depends on its worker count, a merged ID owns its holders' slots,
// and a merge's move is a max, exact in any order. The split was measured
// on two vCPUs only, where every graph of K >= 2 gets one worker.
//
// The one-graph identity. Partials fold over each entity's IDTable holders
// in ascending shard order (FoldFloat64, Pairwise). With one graph every
// fold is over one holder — the identity, Pairwise's inlined one-part case
// — so the result does not depend on whether a table was handed in, and an
// unsharded fuse is this skeleton's one-graph call over an IdentityTable;
// K > 1 re-groups each cross-shard sum and agrees with K = 1 within the
// engines' tolerance (see internal/shard).
//
// Engine recycling. A seeded call hands its engines on with its output
// (Handoff); an unseeded one does not, since cold outputs are what a sweep
// keeps by the dozen and each would pin engines nothing takes. The next call
// seeded from that output takes them exclusively, like the interning index
// of an Append chain: a second successor of the same output (a fork, a
// concurrent call) or one over another graph count builds fresh ones. The
// model rebinds a taken engine with the routine that sizes a fresh one, so a
// recycled engine cannot move a bit.

// CheckGraphs is a lockstep call's argument check: at least one graph, none
// of them nil, and cross-shard ID tables (tables) when there are several.
func CheckGraphs[G any](graphs []*G, tables bool) error {
	if len(graphs) == 0 {
		return fmt.Errorf("FuseLockstep needs at least one graph")
	}
	if s := slices.Index(graphs, nil); s >= 0 {
		return fmt.Errorf("shard %d has no graph (Fuse before first Append)", s)
	}
	if len(graphs) > 1 && !tables {
		return fmt.Errorf("%d graphs need cross-shard ID tables", len(graphs))
	}
	return nil
}

// Lockstep is one lockstep call's runs, one per graph in graph order, and
// the split they step under.
type Lockstep[R any] struct {
	Runs   []R
	Across int // graphs stepped side by side: the width of a stage's fork-join

	merge  int       // workers of a merge over global IDs
	deltas []float64 // a merge's largest move per worker
}

// Bind binds one run per graph in one fork-join over the graphs: bind(s,
// within, e) builds graph s's run on engine e — recycled[s], or the zero E
// when nothing was recycled — with within workers for its own loops (at one
// graph, workers exactly as handed in), and installs its starting
// parameters. It returns the runs, or the first error in graph order.
// workersOf reports the worker count a run resolved, which a one-graph merge
// runs on.
func Bind[R, E any](k, workers int, recycled []E, bind func(s, within int, e E) (R, error), workersOf func(R) int) (Lockstep[R], error) {
	across, within := 1, workers
	if k > 1 {
		across, within = SplitWorkers(k, workers)
	}
	runs := make([]R, k)
	errs := make([]error, k)
	ParallelEach(k, across, func(s int) {
		var e E
		if recycled != nil {
			e = recycled[s]
		}
		runs[s], errs[s] = bind(s, within, e)
	})
	for _, err := range errs {
		if err != nil {
			return Lockstep[R]{}, err
		}
	}
	merge := across * within
	if k == 1 {
		merge = workersOf(runs[0])
	}
	return Lockstep[R]{Runs: runs, Across: across, merge: merge}, nil
}

// Merge runs update over global IDs [0, n), one contiguous ID range per
// worker, and returns the largest move any range reported. update(lo, hi,
// parts) folds each ID of [lo, hi) over its IDTable holders (parts is the
// worker's empty fold scratch, with room for one partial per graph),
// installs the new value on every holder and returns the range's largest
// |Δ| — 0 when every ID keeps its value. The loop over the range is the
// model's, so the per-ID work runs without a call.
func (l *Lockstep[R]) Merge(n int, update func(lo, hi int, parts []float64) float64) float64 {
	if l.deltas == nil {
		l.deltas = make([]float64, l.merge)
	}
	deltas, nRuns := l.deltas, len(l.Runs)
	clear(deltas)
	ParallelRange(n, l.merge, func(w, lo, hi int) {
		deltas[w] = update(lo, hi, make([]float64, 0, nRuns))
	})
	return slices.Max(deltas)
}

// Rounds is the EM round loop: it runs round(0), round(1), … until limit
// rounds have run or a round's move falls below tol, and returns every
// round's move — its length is the round count.
func Rounds(limit int, tol float64, round func(r int) float64) []float64 {
	var moves []float64
	for r := 0; r < limit; r++ {
		move := round(r)
		moves = append(moves, move)
		if move < tol {
			break
		}
	}
	return moves
}

// Handoff holds a seeded call's step engines until the next call seeded from
// its output takes them (see the engine recycling contract above). The zero
// Handoff holds none. It must not be copied.
type Handoff[E any] struct {
	mu   sync.Mutex
	held []E
}

// Give hands es to h, for one later Take.
func (h *Handoff[E]) Give(es []E) {
	h.mu.Lock()
	h.held = es
	h.mu.Unlock()
}

// Take returns the engines h holds if they number n, and h holds none after;
// otherwise it returns nil and h keeps them. Whoever gets them owns them.
func (h *Handoff[E]) Take(n int) []E {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.held) != n {
		return nil
	}
	es := h.held
	h.held = nil
	return es
}

// Held returns the engines h holds without taking them, for inspection.
func (h *Handoff[E]) Held() []E {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held
}
