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
// the gold standard — everything the experiments consume. The feed never
// changes after NewDataset: every derived artifact (a compiled graph per
// granularity or source level, a fusion result per cache key, the
// unique-triple table) is built on first use in its own singleflight cell,
// so concurrent callers of one key share one build and one result pointer
// while different keys build in parallel.
type Dataset struct {
	World       *world.World
	Corpus      *web.Corpus
	Suite       *extract.Suite
	Extractions []extract.Extraction
	Snapshot    *world.Snapshot
	Gold        *eval.GoldStandard

	unique onceCell[[]UniqueTriple]

	// mu guards the cache maps (lookups only; builds run in the cells).
	mu        sync.Mutex
	compiled  map[fusion.Granularity]*onceCell[*fusion.Compiled]
	extGraph  map[bool]*onceCell[*extract.Compiled]
	fuseCache map[string]*onceCell[*fusion.Result]
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

// cellFor returns m's cell for key k, adding an empty one on first use. mu
// covers only the lookup, so a slow build never blocks other keys.
func cellFor[K comparable, T any](mu *sync.Mutex, m map[K]*onceCell[T], k K) *onceCell[T] {
	mu.Lock()
	defer mu.Unlock()
	c, ok := m[k]
	if !ok {
		c = &onceCell[T]{}
		m[k] = c
	}
	return c
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
		compiled:    make(map[fusion.Granularity]*onceCell[*fusion.Compiled]),
		extGraph:    make(map[bool]*onceCell[*extract.Compiled]),
		fuseCache:   make(map[string]*onceCell[*fusion.Result]),
	}
	ds.Gold = eval.NewGoldStandard(ds.Snapshot)
	return ds
}

var (
	dsMu sync.Mutex
	// dsCache holds one cell per (scale, seed), so a slow build (ScaleLarge
	// takes seconds) never blocks lookups of other keys.
	dsCache = map[[2]int64]*onceCell[*Dataset]{}
)

// SharedDataset returns a process-wide cached dataset so that benchmarks,
// tests and the kfexper tool build each (scale, seed) corpus once;
// concurrent requests for different keys build in parallel and concurrent
// requests for the same key share one build.
func SharedDataset(scale Scale, seed int64) *Dataset {
	return cellFor(&dsMu, dsCache, [2]int64{int64(scale), seed}).Get(func() *Dataset {
		return NewDataset(scale, seed)
	})
}

// Unique returns the distinct extracted triples with support counts.
func (ds *Dataset) Unique() []UniqueTriple {
	return ds.unique.Get(func() []UniqueTriple { return uniqueTriples(ds.Extractions) })
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

// Compiled returns the compiled claim graph for a provenance granularity,
// building it on first use. The graph depends only on (Extractions,
// granularity) — never on a fusion Config — so one compilation serves every
// preset and sweep at that granularity; Fuse goes through it. The build
// always uses default parallelism, keeping the cached graph independent of
// which configuration happened to trigger it.
func (ds *Dataset) Compiled(g fusion.Granularity) *fusion.Compiled {
	return cellFor(&ds.mu, ds.compiled, g).Get(func() *fusion.Compiled {
		return fusion.CompileExtractions(ds.Extractions, g, 0)
	})
}

// ExtractionGraph returns the compiled extraction graph (extract.Compiled)
// for a source level, building it on first use — the extraction-layer
// sibling of Compiled: one interned (source × extractor × triple) graph per
// level serves every two-layer configuration. The build always uses default
// parallelism — safe to cache because compilation is bit-identical for every
// worker count, so the cached graph is independent of which configuration
// happened to trigger it and of the machine's core count.
func (ds *Dataset) ExtractionGraph(siteLevel bool) *extract.Compiled {
	return cellFor(&ds.mu, ds.extGraph, siteLevel).Get(func() *extract.Compiled {
		return extract.Compile(ds.Extractions, siteLevel)
	})
}

// Fuse runs (and caches) a fusion configuration over the dataset, reusing
// the granularity's compiled claim graph across configurations. Concurrent
// calls with the same cacheKey share one computation and one result pointer.
func (ds *Dataset) Fuse(cacheKey string, cfg fusion.Config) *fusion.Result {
	return cellFor(&ds.mu, ds.fuseCache, cacheKey).Get(func() *fusion.Result {
		return ds.Compiled(cfg.Granularity).MustFuse(cfg)
	})
}

// ClearFusionCache drops cached fusion results so benchmarks measure real
// recomputation instead of map lookups. Compiled claim graphs are kept: they
// are configuration-independent artifacts of the extraction set, and reusing
// them across configs is exactly what the experiment layer is meant to do.
func (ds *Dataset) ClearFusionCache() {
	ds.mu.Lock()
	clear(ds.fuseCache)
	ds.mu.Unlock()
}
