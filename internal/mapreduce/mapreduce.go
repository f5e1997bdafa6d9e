// Package mapreduce is a small, deterministic, in-process MapReduce engine.
// The paper scales knowledge fusion with a three-stage MapReduce pipeline
// (Figure 8); this package provides the substrate: parallel map over input
// chunks, hash partitioning, grouped reduce, and an iteration driver with a
// convergence test and a forced round cap (the paper's R).
//
// Determinism: for a fixed input order, worker count does not affect the
// output. Mapper emissions are buffered per input chunk and merged in chunk
// order; within a partition, keys are reduced in first-emission order; the
// final output concatenates partitions in index order.
package mapreduce

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job describes one MapReduce job. I is the input record type, K the
// intermediate key, V the intermediate value, O the output record type.
type Job[I any, K comparable, V any, O any] struct {
	// Name appears in error messages and counters.
	Name string

	// Map consumes one input record and emits zero or more key/value
	// pairs. It must be safe to call concurrently on distinct records.
	Map func(in I, emit func(K, V))

	// Reduce consumes one key with all its values and emits zero or more
	// outputs. It must be safe to call concurrently on distinct keys.
	Reduce func(key K, values []V, emit func(O))

	// KeyHash places keys into partitions. It must be deterministic.
	KeyHash func(K) uint64

	// Partitions is the number of reduce partitions (default 32).
	Partitions int

	// Workers is the parallelism for both phases (default GOMAXPROCS).
	Workers int

	// EmitsPerInput, when > 0, declares the expected number of Map
	// emissions per input record. It is a pure optimization hint: emission
	// buffers are pre-sized to chunkSize·EmitsPerInput/Partitions instead
	// of growing from empty, cutting append churn on high-volume jobs. It
	// never affects results.
	EmitsPerInput int
}

// Counters collects named counters across a run.
type Counters struct {
	mu sync.Mutex
	m  map[string]*int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]*int64)} }

// Add increments the named counter by delta. Safe for concurrent use.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	p, ok := c.m[name]
	if !ok {
		p = new(int64)
		c.m[name] = p
	}
	c.mu.Unlock()
	atomic.AddInt64(p, delta)
}

// Get returns the named counter's value.
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[name]; ok {
		return atomic.LoadInt64(p)
	}
	return 0
}

type pair[K comparable, V any] struct {
	key K
	val V
}

// Run executes the job over inputs and returns the concatenated reducer
// outputs in deterministic order.
func Run[I any, K comparable, V any, O any](job Job[I, K, V, O], inputs []I) ([]O, error) {
	if job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("mapreduce: job %q needs both Map and Reduce", job.Name)
	}
	if job.KeyHash == nil {
		return nil, fmt.Errorf("mapreduce: job %q needs KeyHash", job.Name)
	}
	parts := job.Partitions
	if parts <= 0 {
		parts = 32
	}
	workers := job.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// ---- Map phase ----
	// Inputs are cut into fixed chunks; each chunk's emissions are buffered
	// per partition. Chunks are processed by a worker pool but merged in
	// chunk order, so the result is independent of scheduling.
	chunkSize := (len(inputs) + workers*4 - 1) / (workers * 4)
	if chunkSize < 1 {
		chunkSize = 1
	}
	nChunks := (len(inputs) + chunkSize - 1) / chunkSize
	chunkBufs := make([][][]pair[K, V], nChunks) // [chunk][partition][]pair

	var wg sync.WaitGroup
	chunkCh := make(chan int)
	panics := make(chan any, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Recover per chunk so a panicking Map never stops the worker
			// from draining its channel (which would deadlock the sender).
			for ci := range chunkCh {
				func() {
					defer func() {
						if r := recover(); r != nil {
							select {
							case panics <- r:
							default:
							}
						}
					}()
					bufs := make([][]pair[K, V], parts)
					lo := ci * chunkSize
					hi := lo + chunkSize
					if hi > len(inputs) {
						hi = len(inputs)
					}
					if job.EmitsPerInput > 0 {
						per := (hi-lo)*job.EmitsPerInput/parts + 1
						for p := range bufs {
							bufs[p] = make([]pair[K, V], 0, per)
						}
					}
					emit := func(k K, v V) {
						p := int(job.KeyHash(k) % uint64(parts))
						bufs[p] = append(bufs[p], pair[K, V]{key: k, val: v})
					}
					for i := lo; i < hi; i++ {
						job.Map(inputs[i], emit)
					}
					chunkBufs[ci] = bufs
				}()
			}
		}()
	}
	for ci := 0; ci < nChunks; ci++ {
		chunkCh <- ci
	}
	close(chunkCh)
	wg.Wait()
	select {
	case r := <-panics:
		return nil, fmt.Errorf("mapreduce: job %q map phase panicked: %v", job.Name, r)
	default:
	}

	// ---- Shuffle ----
	// Group each partition by key, preserving first-emission order across
	// chunk-ordered merges.
	type group struct {
		keys   []K
		values map[K][]V
	}
	groups := make([]group, parts)
	var sg sync.WaitGroup
	partCh := make(chan int)
	for wk := 0; wk < workers; wk++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for p := range partCh {
				// Pre-size the shuffle from the known pair volume: the key
				// count is bounded by it, so the map and key list never
				// rehash or regrow while merging.
				total := 0
				for ci := 0; ci < nChunks; ci++ {
					if chunkBufs[ci] != nil {
						total += len(chunkBufs[ci][p])
					}
				}
				if total == 0 {
					continue
				}
				g := group{
					keys:   make([]K, 0, total),
					values: make(map[K][]V, total),
				}
				for ci := 0; ci < nChunks; ci++ {
					if chunkBufs[ci] == nil {
						continue
					}
					for _, kv := range chunkBufs[ci][p] {
						if _, ok := g.values[kv.key]; !ok {
							g.keys = append(g.keys, kv.key)
						}
						g.values[kv.key] = append(g.values[kv.key], kv.val)
					}
				}
				groups[p] = g
			}
		}()
	}
	for p := 0; p < parts; p++ {
		partCh <- p
	}
	close(partCh)
	sg.Wait()

	// ---- Reduce phase ----
	outBufs := make([][]O, parts)
	var rg sync.WaitGroup
	redCh := make(chan int)
	for wk := 0; wk < workers; wk++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			// Recover per partition so a panicking Reduce keeps the worker
			// draining (see the map phase).
			for p := range redCh {
				func() {
					defer func() {
						if r := recover(); r != nil {
							select {
							case panics <- r:
							default:
							}
						}
					}()
					var out []O
					emit := func(o O) { out = append(out, o) }
					for _, k := range groups[p].keys {
						job.Reduce(k, groups[p].values[k], emit)
					}
					outBufs[p] = out
				}()
			}
		}()
	}
	for p := 0; p < parts; p++ {
		redCh <- p
	}
	close(redCh)
	rg.Wait()
	select {
	case r := <-panics:
		return nil, fmt.Errorf("mapreduce: job %q reduce phase panicked: %v", job.Name, r)
	default:
	}

	total := 0
	for p := 0; p < parts; p++ {
		total += len(outBufs[p])
	}
	out := make([]O, 0, total)
	for p := 0; p < parts; p++ {
		out = append(out, outBufs[p]...)
	}
	return out, nil
}

// MustRun is Run that panics on configuration errors; for pipelines whose
// jobs are statically well-formed.
func MustRun[I any, K comparable, V any, O any](job Job[I, K, V, O], inputs []I) []O {
	out, err := Run(job, inputs)
	if err != nil {
		panic(err)
	}
	return out
}

// Iterate drives an iterative computation: it calls round with the current
// state and round index (0-based) until round reports convergence or
// maxRounds rounds have run — the paper forces termination after R rounds.
// It returns the final state and the number of rounds executed.
func Iterate[S any](state S, maxRounds int, round func(S, int) (S, bool)) (S, int) {
	rounds := 0
	for rounds < maxRounds {
		next, done := round(state, rounds)
		state = next
		rounds++
		if done {
			break
		}
	}
	return state, rounds
}
