// Package csr holds the compressed-sparse-row building blocks shared by the
// compiled graphs of the fusion layer (internal/fusion's claim graph) and the
// extraction layer (internal/extract's statement graph): two parallel range
// splitters, a parallel grouped counting sort, the open-addressed intern
// tables (InternTable, PairTable) both graphs' compile loops assign their IDs
// through, and the lockstep EM skeleton both engines' round drivers run on
// (lockstep.go). All are exact — results never depend on the worker count or
// a table's hash seed — so the compiled graphs built on top of them stay
// bit-identical across machines.
//
// Which splitter a loop uses. ParallelRange cuts [0, n) into one fixed
// contiguous range per worker, so (worker, lo, hi) is a pure function of
// (n, workers). The passes that rely on that keep it: the counting sort and
// the claim graph's intern ranges with their remap (a range's output lands
// at offsets planned from the same split), kfio's batch decode, synthesis,
// the uniform elementwise passes and the fixed-block reductions, and the
// loops whose per-index cost is measured flat (the two-layer statement and
// source passes). ParallelChunks cuts [0, n) into chunksPerWorker chunks per
// worker and hands them out at run time, so a worker that drew cheap indexes
// draws again. Every EM loop whose per-index cost follows a skewed span takes
// it: the graphs number items, triples and provenances in first-occurrence
// order, so the popular, heavy ones come first and equal-count halves leave
// one worker idle (stage I's first half of items holds 87 % of the claims of
// the 150k seed-42 feed). Such a loop writes only its own indexes plus
// per-worker scratch, so which worker ran which chunk moves no bit.
// ParallelEach, a stage over a lockstep's graphs, is ParallelChunks' one-index
// case.
package csr

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelRange splits [0, n) into one contiguous chunk per worker and
// waits for all of them. workers <= 0 defaults to GOMAXPROCS; the count is
// clamped to n. The chunk formula is deterministic, so two calls with the
// same (n, workers) see identical (worker, lo, hi) triples. Chunk
// boundaries never influence results — f must only touch state owned by the
// indexes it is given, plus per-worker state keyed by its worker index.
func ParallelRange(n, workers int, f func(worker, lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			f(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// SplitWorkers divides a worker bound between n independent parts — the
// graphs a round driver steps — parts first: across = min(n, workers) of
// them run side by side and each gets within = max(1, workers/across) for
// its own loops. workers <= 0 means GOMAXPROCS. A stage over the parts is
// then one fork-join (ParallelEach) instead of one per part per loop over an
// nth of the data: each join costs a wake-up, buys little at that size, and
// is where a busy host stalls a step.
func SplitWorkers(n, workers int) (across, within int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	across = max(1, min(n, workers))
	return across, max(1, workers/across)
}

// chunksPerWorker is how many chunks ParallelChunks cuts per worker. Timed
// per worker on stage I over the 150k seed-42 claim graphs at two workers
// (15 sweeps of VOTE, ACCU, POPACCU and POPACCU+unsup, three runs each on
// 2 shared vCPUs), the busier worker did 53–55 % of the work at 4 chunks
// per worker, 51.5–52.3 % at 16 and 51.4–52.5 % at 64 or 256; one range per
// worker left it 73–75 %.
const chunksPerWorker = 16

// ParallelChunks calls f over contiguous chunks covering [0, n) and waits for
// all of them: min(n, workers × chunksPerWorker) chunks of near-equal length,
// handed out in ascending order through one atomic counter to min(workers, n)
// workers, so f may run several times per worker and a worker that drew
// cheap indexes draws again. workers <= 0 defaults to GOMAXPROCS; the
// caller's goroutine is worker 0, so one worker runs every chunk in order
// and forks nothing. Which worker runs which chunk depends on timing: f must
// only touch state owned by the indexes it is given, plus per-worker state
// keyed by its worker index that no chunk boundary can move. With two or
// more workers it is one fork-join, like ParallelRange.
func ParallelChunks(n, workers int, f func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	chunks := min(n, workers*chunksPerWorker)
	var next atomic.Int64
	draw := func(w int) {
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			f(w, n*c/chunks, n*(c+1)/chunks)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			draw(w)
		}(w)
	}
	draw(0)
	wg.Wait()
}

// ParallelEach calls f(i) for every i in [0, n), across at a time: one
// fork-join that hands the indexes out as they free up (ParallelChunks; a
// chunk is one index while n <= chunksPerWorker × across), inline when
// across is 1. f must touch only state owned by index i.
func ParallelEach(n, across int, f func(i int)) {
	ParallelChunks(n, across, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ParallelThreshold is the input size below which the shared multi-pass
// parallel schemes — the grouped counting sort here, the claim graph's
// intern ranges — fall back to one pass over the whole input: under it,
// per-worker scratch setup and the fold of the ranges cost more than the
// single-threaded work. The graphs' assemble tails gate their elementwise and
// per-triple passes on it too. One constant so retuning the cutoff happens in
// one place for every consumer.
const ParallelThreshold = 1 << 14

// ElementwiseThreshold is the element count below which the per-round
// elementwise table passes (log-likelihood and log-weight precomputes in
// the fusion and twolayer engines) stay sequential: under it, goroutine
// setup costs more than the loop. Gating on input size alone keeps results
// independent of the worker count — the passes are elementwise, so any
// split is exact.
const ElementwiseThreshold = 1 << 12
