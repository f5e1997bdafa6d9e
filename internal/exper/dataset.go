// Package exper implements the paper's evaluation section experiment by
// experiment: every table (1-3) and every figure (3-7, 9-22) has a function
// that regenerates it over a synthetic dataset and renders paper-style rows.
// The cmd/kfexper binary and the repository's benchmarks are thin wrappers
// around this package.
package exper

import (
	"sync"

	"kfusion/internal/eval"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/web"
	"kfusion/internal/world"
)

// Scale selects a dataset size.
type Scale int

const (
	// ScaleSmall is unit-test scale (sub-second end to end).
	ScaleSmall Scale = iota
	// ScaleBench is the scale used for the paper-reproduction numbers:
	// large enough for stable statistics, seconds to build.
	ScaleBench
	// ScaleLarge stresses the pipeline (hundreds of thousands of
	// extractions); used only by the throughput benchmarks.
	ScaleLarge
)

// Dataset bundles one generated world, its crawl, the extraction output and
// the gold standard — everything the experiments consume.
//
// A Dataset models an append-only extraction feed: AppendExtractions grows
// the feed and bumps the generation, and the compiled-graph caches are
// generation-aware — generation k's claim and extraction graphs are built by
// Append from generation k-1's cached graphs (bit-identical to recompiling
// the whole feed, a pinned invariant of the compile pipeline), so the
// experiment layer never re-interns the prefix. AppendExtractions is
// single-writer: it must not race with readers of Extractions or with cache
// lookups.
type Dataset struct {
	World       *world.World
	Corpus      *web.Corpus
	Suite       *extract.Suite
	Extractions []extract.Extraction
	Snapshot    *world.Snapshot
	Gold        *eval.GoldStandard

	// uniqueTriples caches the distinct extracted triples with their
	// support counts, per generation.
	uniqueMu  sync.Mutex
	uniqueGen int
	unique    []UniqueTriple

	// mu guards the generation counters and cache maps below; the builds
	// themselves run outside it, serialized per key by each cell's once, so
	// concurrent callers of the same key share one computation (and one
	// result pointer) while different keys proceed in parallel.
	mu sync.Mutex
	// gen counts AppendExtractions calls; cuts[k] is the feed length at
	// generation k, so generation k's graphs cover Extractions[:cuts[k]].
	gen       int
	cuts      []int
	compiled  map[fusion.Granularity]*claimGraphChain
	extGraph  map[bool]*graphChain[*extract.Compiled]
	fuseCache map[fuseKey]*onceCell[*fusion.Result]
}

// fuseKey scopes a cached fusion result to the generation it was fused on.
type fuseKey struct {
	gen int
	key string
}

// graphChain is one cache key's generation chain: one singleflight cell per
// generation. Cell k's build consumes cell k-1's graph (Append), so a lookup
// at generation k forces the chain below it exactly once.
type graphChain[T any] struct {
	cells []*onceCell[T]
}

// snapshot returns the chain's cells for generations 0..gen, extending the
// chain as needed. Must be called under the dataset lock; the returned
// slice is safe to use outside it (cells are never replaced).
func (c *graphChain[T]) snapshot(gen int) []*onceCell[T] {
	for len(c.cells) <= gen {
		c.cells = append(c.cells, &onceCell[T]{})
	}
	return append([]*onceCell[T](nil), c.cells[:gen+1]...)
}

// buildChain forces a generation chain bottom-up through its singleflight
// cells: cell 0 builds the base graph, cell k > 0 appends generation k onto
// the (recursively forced) generation k-1. Concurrent callers of any
// generation share one build per cell.
func buildChain[T any](cells []*onceCell[T], base func() T, appendGen func(prev T, k int) T) T {
	var build func(k int) T
	build = func(k int) T {
		return cells[k].Get(func() T {
			if k == 0 {
				return base()
			}
			return appendGen(build(k-1), k)
		})
	}
	return build(len(cells) - 1)
}

// claimGraphChain is the claim-graph generation chain for one granularity,
// plus the ClaimStream that carries the (provenance, triple) dedup set
// across batches. The stream is advanced exactly once per generation,
// inside that generation's cell build, so its state always matches the last
// built generation.
type claimGraphChain struct {
	graphChain[*fusion.Compiled]
	stream *fusion.ClaimStream
}

// UniqueTriple is one distinct extracted triple with its support counts.
type UniqueTriple struct {
	Triple kb.Triple
	// Extractors is the number of distinct extractors asserting the triple.
	Extractors int
	// URLs is the number of distinct Web pages asserting the triple.
	URLs int
	// Provenances is the total number of (extractor, URL) extraction
	// instances asserting the triple.
	Provenances int
}

// onceCell is a per-key singleflight cell: Get runs build exactly once and
// caches its value, so concurrent callers share one computation. A build
// panic is captured and re-raised for every caller — concurrent and future
// — so a failed build never poisons the cell into silently returning the
// zero value (sync.Once consumes its one shot even when f panics).
type onceCell[T any] struct {
	once     sync.Once
	val      T
	panicked any
}

func (c *onceCell[T]) Get(build func() T) T {
	c.once.Do(func() {
		defer func() { c.panicked = recover() }()
		c.val = build()
	})
	if c.panicked != nil {
		panic(c.panicked)
	}
	return c.val
}

// scaleConfigs maps a Scale to its world and corpus generator configs —
// the single definition NewDataset and SegmentExtractions share.
func scaleConfigs(scale Scale, seed int64) (world.Config, web.Config) {
	wcfg := world.DefaultConfig(seed)
	ccfg := web.DefaultConfig(seed + 1)
	switch scale {
	case ScaleBench:
		wcfg = world.BenchConfig(seed)
		ccfg = web.BenchConfig(seed + 1)
	case ScaleLarge:
		wcfg = world.BenchConfig(seed)
		wcfg.NumEntities = 8000
		ccfg = web.BenchConfig(seed + 1)
		ccfg.NumSites = 8000
	}
	return wcfg, ccfg
}

// SegmentExtractions generates segment i of a web-scale extraction feed: one
// ScaleLarge-sized world and crawl at a segment-derived seed, extracted and
// returned without building Dataset caches or a gold standard. Web-scale
// corpora (tens of millions of claims) are synthesized as a sequence of such
// segments streamed to disk — each segment is an independent crawl slice, so
// generation memory stays bounded by one segment regardless of the corpus
// target. Deterministic per (seed, segment); distinct segments use distinct
// seeds, so their worlds (and hence claims) are almost entirely disjoint.
func SegmentExtractions(seed int64, segment int) []extract.Extraction {
	s := seed + int64(segment)*1_000_003
	wcfg, ccfg := scaleConfigs(ScaleLarge, s)
	w := world.MustGenerate(wcfg)
	corpus := web.MustGenerate(w, ccfg)
	return extract.NewSuite(w, s+2).Run(w, corpus)
}

// NewDataset builds a dataset at the given scale and seed, deterministic per
// (scale, seed).
func NewDataset(scale Scale, seed int64) *Dataset {
	wcfg, ccfg := scaleConfigs(scale, seed)
	w := world.MustGenerate(wcfg)
	corpus := web.MustGenerate(w, ccfg)
	suite := extract.NewSuite(w, seed+2)
	ds := &Dataset{
		World:       w,
		Corpus:      corpus,
		Suite:       suite,
		Extractions: suite.Run(w, corpus),
		Snapshot:    world.BuildFreebase(w),
		compiled:    make(map[fusion.Granularity]*claimGraphChain),
		extGraph:    make(map[bool]*graphChain[*extract.Compiled]),
		fuseCache:   make(map[fuseKey]*onceCell[*fusion.Result]),
	}
	ds.cuts = []int{len(ds.Extractions)}
	ds.Gold = eval.NewGoldStandard(ds.Snapshot)
	return ds
}

// Generation reports how many extraction batches have been appended (0 for
// a freshly synthesized dataset).
func (ds *Dataset) Generation() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.gen
}

// AppendExtractions grows the extraction feed by one batch and advances the
// dataset to the next generation. Subsequent Compiled / ExtractionGraph /
// Fuse calls see the grown feed; their graphs are built incrementally from
// the previous generation's cached graphs via Append, never recompiling the
// prefix. Cached fusion results of earlier generations stay cached (their
// keys are generation-scoped) but are not reused. Single-writer: must not
// race with readers.
func (ds *Dataset) AppendExtractions(xs []extract.Extraction) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.Extractions = append(ds.Extractions, xs...)
	ds.gen++
	ds.cuts = append(ds.cuts, len(ds.Extractions))
}

var (
	dsMu sync.Mutex
	// dsCache holds one cell per (scale, seed), so a slow build (ScaleLarge
	// takes seconds) never blocks lookups of other keys.
	dsCache = map[[2]int64]*onceCell[*Dataset]{}
)

// SharedDataset returns a process-wide cached dataset so that benchmarks,
// tests and the kfexper tool build each (scale, seed) corpus once. The global lock
// covers only the cache lookup; the build runs under the entry's per-key
// once, so concurrent requests for different keys build in parallel and
// concurrent requests for the same key share one build.
func SharedDataset(scale Scale, seed int64) *Dataset {
	key := [2]int64{int64(scale), seed}
	dsMu.Lock()
	e, ok := dsCache[key]
	if !ok {
		e = &onceCell[*Dataset]{}
		dsCache[key] = e
	}
	dsMu.Unlock()
	return e.Get(func() *Dataset { return NewDataset(scale, seed) })
}

// Unique returns the distinct extracted triples with support counts, for
// the current generation of the feed.
func (ds *Dataset) Unique() []UniqueTriple {
	ds.mu.Lock()
	gen := ds.gen
	xs := ds.Extractions[:ds.cuts[gen]]
	ds.mu.Unlock()
	ds.uniqueMu.Lock()
	defer ds.uniqueMu.Unlock()
	if ds.unique == nil || ds.uniqueGen != gen {
		ds.unique = uniqueTriples(xs)
		ds.uniqueGen = gen
	}
	return ds.unique
}

// uniqueTriples computes the distinct triples of an extraction stream with
// their support counts.
func uniqueTriples(xs []extract.Extraction) []UniqueTriple {
	type support struct {
		extractors map[string]bool
		urls       map[string]bool
	}
	idx := make(map[kb.Triple]int)
	var unique []UniqueTriple
	var supports []support
	for _, x := range xs {
		i, ok := idx[x.Triple]
		if !ok {
			i = len(unique)
			idx[x.Triple] = i
			unique = append(unique, UniqueTriple{Triple: x.Triple})
			supports = append(supports, support{
				extractors: make(map[string]bool),
				urls:       make(map[string]bool),
			})
		}
		supports[i].extractors[x.Extractor] = true
		supports[i].urls[x.URL] = true
		unique[i].Provenances++
	}
	for i := range unique {
		unique[i].Extractors = len(supports[i].extractors)
		unique[i].URLs = len(supports[i].urls)
	}
	return unique
}

// Compiled returns the compiled claim graph for a provenance granularity at
// the dataset's current generation, building it on first use. The graph
// depends only on (Extractions, granularity) — never on a fusion Config —
// so one compilation serves every preset and sweep at that granularity;
// Fuse goes through it. After AppendExtractions, the new generation's graph
// is built incrementally: the appended batch flattens through the
// granularity's ClaimStream (carrying the cross-batch dedup set) and joins
// the previous generation's cached graph via fusion's Append — bit-identical
// to compiling the whole feed. The build always uses default parallelism,
// keeping the cached graph independent of which configuration happened to
// trigger it.
func (ds *Dataset) Compiled(g fusion.Granularity) *fusion.Compiled {
	ds.mu.Lock()
	chain, ok := ds.compiled[g]
	if !ok {
		chain = &claimGraphChain{stream: fusion.NewClaimStream(g)}
		ds.compiled[g] = chain
	}
	cuts := ds.cuts
	xs := ds.Extractions
	cells := chain.snapshot(ds.gen)
	ds.mu.Unlock()

	return buildChain(cells,
		func() *fusion.Compiled {
			return fusion.MustCompile(chain.stream.Add(xs[:cuts[0]]))
		},
		func(prev *fusion.Compiled, k int) *fusion.Compiled {
			return prev.MustAppend(chain.stream.Add(xs[cuts[k-1]:cuts[k]]))
		})
}

// ExtractionGraph returns the compiled extraction graph (extract.Compiled)
// for a source level at the dataset's current generation, building it on
// first use — the extraction-layer sibling of Compiled: one interned
// (source × extractor × triple) graph per level serves every two-layer
// configuration, cached with the same per-key singleflight as the claim
// graphs, and grown across generations with extract's Append. The build
// always uses default parallelism — safe to cache because compilation and
// Append are bit-identical for every worker count, so the cached graph is
// independent of which configuration happened to trigger it and of the
// machine's core count.
func (ds *Dataset) ExtractionGraph(siteLevel bool) *extract.Compiled {
	ds.mu.Lock()
	chain, ok := ds.extGraph[siteLevel]
	if !ok {
		chain = &graphChain[*extract.Compiled]{}
		ds.extGraph[siteLevel] = chain
	}
	cuts := ds.cuts
	xs := ds.Extractions
	cells := chain.snapshot(ds.gen)
	ds.mu.Unlock()

	return buildChain(cells,
		func() *extract.Compiled {
			return extract.Compile(xs[:cuts[0]], siteLevel)
		},
		func(prev *extract.Compiled, k int) *extract.Compiled {
			return prev.Append(xs[cuts[k-1]:cuts[k]])
		})
}

// Fuse runs (and caches) a fusion configuration over the dataset's current
// generation, reusing the granularity's compiled claim graph across
// configurations. Concurrent calls with the same cacheKey share one
// computation and one result pointer; results are scoped per generation.
func (ds *Dataset) Fuse(cacheKey string, cfg fusion.Config) *fusion.Result {
	ds.mu.Lock()
	k := fuseKey{gen: ds.gen, key: cacheKey}
	e, ok := ds.fuseCache[k]
	if !ok {
		e = &onceCell[*fusion.Result]{}
		ds.fuseCache[k] = e
	}
	ds.mu.Unlock()
	return e.Get(func() *fusion.Result {
		return ds.Compiled(cfg.Granularity).MustFuse(cfg)
	})
}

// ClearFusionCache drops cached fusion results so benchmarks measure real
// recomputation instead of map lookups. Compiled claim graphs are kept: they
// are configuration-independent artifacts of the extraction set, and reusing
// them across configs is exactly what the experiment layer is meant to do.
func (ds *Dataset) ClearFusionCache() {
	ds.mu.Lock()
	ds.fuseCache = make(map[fuseKey]*onceCell[*fusion.Result])
	ds.mu.Unlock()
}
