// Package csr holds the compressed-sparse-row building blocks shared by the
// compiled graphs of the fusion layer (internal/fusion's claim graph) and the
// extraction layer (internal/extract's statement graph): a deterministic
// parallel range splitter, a parallel grouped counting sort, and the
// open-addressed intern tables (InternTable, PairTable) both graphs' compile
// loops assign their IDs through. All are exact — results never depend on the
// worker count or a table's hash seed — so the compiled graphs built on top
// of them stay bit-identical across machines.
package csr

import (
	"runtime"
	"sync"
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

// ParallelThreshold is the input size below which the shared multi-pass
// parallel schemes — the grouped counting sort here, the claim graph's
// shard-and-merge interning pass — fall back to their sequential loops: under
// it, per-worker scratch setup and the merge pass cost more than the
// single-threaded work. One constant so retuning the
// cutoff happens in one place for every consumer.
const ParallelThreshold = 1 << 14

// ElementwiseThreshold is the element count below which the per-round
// elementwise table passes (log-likelihood and log-weight precomputes in
// the fusion and twolayer engines) stay sequential: under it, goroutine
// setup costs more than the loop. Gating on input size alone keeps results
// independent of the worker count — the passes are elementwise, so any
// split is exact.
const ElementwiseThreshold = 1 << 12
