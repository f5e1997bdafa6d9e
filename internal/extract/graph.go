package extract

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
)

// Compiled is the interned, immutable form of an extraction set for the
// models that need the full three-dimensional (source × extractor × triple)
// structure — today the two-layer model of internal/twolayer, which must see
// which extractors did and did NOT extract a statement from a source. It is
// the extraction-layer sibling of fusion.Compiled: every source, extractor,
// (source, triple) statement pair, candidate triple and data item is interned
// into a dense int32 ID with CSR adjacency, built once, and then every EM
// round iterates flat slices — no maps, no string hashing.
//
// ID spaces and invariants (all deterministic for a fixed extraction order,
// independent of the worker count):
//
//   - Source, extractor, triple, item and statement IDs are assigned in
//     first-occurrence order of the extraction stream.
//   - A statement is a distinct (source, triple) pair; its extractor list
//     holds the distinct extractors that produced it there, in
//     first-extraction order.
//   - SourceExtractors lists the distinct extractors with at least one
//     extraction from the source, in first-extraction order — the "which
//     extractors processed this source" set the two-layer model scores
//     silence against.
//   - SourceStatements, TripleStatements and ItemTriples are CSR spans in
//     ascending ID order (the same order the map-based reference model
//     appends them in).
//   - ExtBlockStatements spans (the ext→statement CSR) list, per extractor,
//     every statement whose source the extractor processed, in ascending
//     statement order, with a hit flag marking the statements it actually
//     extracted — pre-cut into csr.ReduceBlockSize blocks so the two-layer
//     M-step can reduce per-extractor sums in parallel with a fixed,
//     worker-independent addition tree.
//
// A Compiled is bound to its source level: URL-level or site-level keys are
// chosen at Compile time, mirroring how fusion.Compiled is bound to its
// claims' provenance granularity. It holds no model state, so one Compiled
// can serve any number of two-layer configurations concurrently.
type Compiled struct {
	siteLevel bool

	sources    []string // source ID -> URL or site key
	extractors []string // extractor ID -> name

	// Statements: distinct (source, triple) pairs.
	stSource   []int32 // statement ID -> source ID
	stTriple   []int32 // statement ID -> triple ID
	stExtStart []int32 // len nStatements+1; span into stExts
	stExts     []int32 // extractor IDs per statement, first-extraction order

	// Per-source adjacency.
	srcExtStart []int32 // len nSources+1; span into srcExts
	srcExts     []int32 // distinct extractor IDs per source, first-extraction order
	srcStStart  []int32 // len nSources+1; span into srcSts
	srcSts      []int32 // statement IDs per source, ascending

	// Candidate triples and data items.
	triples         []kb.Triple   // triple ID -> triple
	tripleStStart   []int32       // len nTriples+1; span into tripleSts
	tripleSts       []int32       // statement IDs per triple, ascending
	tripleExts      []int32       // triple ID -> distinct extractor count
	items           []kb.DataItem // item ID -> data item
	itemOfTriple    []int32       // triple ID -> item ID
	itemTripleStart []int32       // len nItems+1; span into itemTriples
	itemTriples     []int32       // triple IDs per item, ascending
	itemStatements  []int32       // item ID -> total statements on the item

	// Ext→statement incidence: for each extractor, the statements whose
	// source it processed (ascending statement order), with a parallel hit
	// flag for the statements it extracted. This is the two-layer M-step's
	// reduction domain; extBlocks is its fixed csr.ReduceBlockSize partition.
	extStStart []int32     // len nExtractors+1; span into extSts/extHits
	extSts     []int32     // statement IDs per extractor, ascending
	extHits    []bool      // aligned with extSts: extractor extracted it
	extHitsF   []float64   // extHits as 0/1 floats (derived; see buildExtHitsF)
	extBlocks  []csr.Block // fixed-size blocks covering the extStStart spans

	// maxItemTriples is the largest candidate count of any single item; it
	// sizes per-worker scoring scratch.
	maxItemTriples int

	// gen counts the Appends that produced this handle (0 for a fresh
	// Compile).
	gen int

	// idx is the interning byproduct Append consumes: the key -> ID maps of
	// every interned space. The first Append on this generation takes it
	// (and hands it to the generation it returns); a later Append on the
	// same generation rebuilds it from the graph — correct, just slower.
	// Guarded by mu; everything else in the struct is immutable.
	mu  sync.Mutex
	idx *extractIndex
}

// extractIndex is the mutable interning state a compilation leaves behind so
// Append can extend the ID spaces without re-hashing the prefix.
type extractIndex struct {
	src  map[string]int32
	ext  map[string]int32
	tri  map[kb.Triple]int32
	item map[kb.DataItem]int32
	st   map[stKey]int32
}

func newExtractIndex(n int) *extractIndex {
	return &extractIndex{
		src:  make(map[string]int32, 1024),
		ext:  make(map[string]int32, 32),
		tri:  make(map[kb.Triple]int32, n),
		item: make(map[kb.DataItem]int32, n),
		st:   make(map[stKey]int32, n),
	}
}

// Compile interns an extraction set into a reusable Compiled graph using all
// available cores. siteLevel keys sources at site level instead of URL level.
// The graph is deterministic for a fixed extraction order and independent of
// available parallelism.
func Compile(xs []Extraction, siteLevel bool) *Compiled {
	return CompileWorkers(xs, siteLevel, 0)
}

// CompileWorkers is Compile with an explicit bound on the CSR-building and
// interning goroutines (0 = GOMAXPROCS). The graph is identical for any
// workers value.
func CompileWorkers(xs []Extraction, siteLevel bool, workers int) *Compiled {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &Compiled{siteLevel: siteLevel}
	g.idx = newExtractIndex(len(xs))

	// Interning pass: every ID space is assigned in first-occurrence order of
	// the extraction stream. Large inputs run a parallel shard-and-merge pass
	// (internParallel); small ones intern sequentially — both produce the
	// exact same graph and leave the same index behind for Append.
	var stExtLists, srcExtLists [][]int32
	if len(xs) >= internShardThreshold && workers > 1 {
		stExtLists, srcExtLists = internParallel(g, g.idx, xs, siteLevel, workers)
	} else {
		stExtLists, srcExtLists = internSequential(g, g.idx, xs, siteLevel)
	}

	// ---- Flatten the per-statement and per-source extractor lists ----
	g.stExtStart, g.stExts = flattenLists(stExtLists)
	g.srcExtStart, g.srcExts = flattenLists(srcExtLists)

	// ---- CSR adjacency by parallel counting sort ----
	nSt := len(g.stSource)
	nTriples := len(g.triples)
	nItems := len(g.items)
	g.srcStStart, g.srcSts = csr.ByGroup(g.stSource, len(g.sources), workers)
	g.tripleStStart, g.tripleSts = csr.ByGroup(g.stTriple, nTriples, workers)
	g.itemTripleStart, g.itemTriples = csr.ByGroup(g.itemOfTriple, nItems, workers)
	for i := 0; i < nItems; i++ {
		if n := int(g.itemTripleStart[i+1] - g.itemTripleStart[i]); n > g.maxItemTriples {
			g.maxItemTriples = n
		}
	}

	// ---- Config-independent support counts ----
	// Statements per item (the two-layer result's ItemProvenances).
	g.itemStatements = make([]int32, nItems)
	for si := 0; si < nSt; si++ {
		g.itemStatements[g.itemOfTriple[g.stTriple[si]]]++
	}
	// Distinct extractors per triple, in parallel over triple ranges: each
	// worker stamps a private seen-set with the triple ID, so counts are
	// exact and independent of the split.
	g.tripleExts = make([]int32, nTriples)
	tw := workers
	if nSt < internShardThreshold {
		tw = 1 // goroutine setup would dominate
	}
	csr.ParallelRange(nTriples, tw, func(_, lo, hi int) {
		seen := make([]int32, len(g.extractors))
		for i := range seen {
			seen[i] = -1
		}
		for t := lo; t < hi; t++ {
			g.recountTriple(int32(t), seen)
		}
	})

	g.buildExtStatements(workers)
	return g
}

// recountTriple recomputes one triple's distinct-extractor count using a
// caller-owned seen-set stamped with the triple ID. Shared by the compile
// pass and Append's touched-triple recount so both produce identical counts.
func (g *Compiled) recountTriple(t int32, seen []int32) {
	cnt := int32(0)
	for _, si := range g.tripleSts[g.tripleStStart[t]:g.tripleStStart[t+1]] {
		for _, e := range g.stExts[g.stExtStart[si]:g.stExtStart[si+1]] {
			if seen[e] != t {
				seen[e] = t
				cnt++
			}
		}
	}
	g.tripleExts[t] = cnt
}

// buildExtStatements materializes the ext→statement incidence: for every
// extractor, the statements whose source it processed (ascending statement
// order) with a hit flag for the ones it extracted — the two-layer M-step's
// per-extractor reduction domain, walked there in csr.ReduceBlockSize blocks
// (extBlocks). Built with the same parallel counting-sort scheme as
// csr.ByGroup, except each statement scatters into several extractor spans;
// each (worker, extractor) cell owns a disjoint output range ordered by
// worker, so the result is identical for every workers value.
func (g *Compiled) buildExtStatements(workers int) {
	nSt := len(g.stSource)
	nExt := len(g.extractors)
	ew := workers
	if nSt < internShardThreshold {
		ew = 1 // goroutine setup would dominate
	}
	if ew > nSt {
		ew = nSt
	}
	if ew < 1 {
		ew = 1
	}
	counts := make([]int32, ew*nExt)
	csr.ParallelRange(nSt, ew, func(w, lo, hi int) {
		c := counts[w*nExt : (w+1)*nExt]
		for si := lo; si < hi; si++ {
			for _, x := range g.SourceExtractors(g.stSource[si]) {
				c[x]++
			}
		}
	})
	// The incidence is a product space — sum over sources of
	// |extractors(src)| x |statements(src)| — so unlike the ID spaces it is
	// not bounded by the extraction count; run the prefix sum in int64 and
	// refuse to build corrupt int32 spans if it ever crosses 2^31.
	g.extStStart = make([]int32, nExt+1)
	run := int64(0)
	for x := 0; x < nExt; x++ {
		g.extStStart[x] = int32(run)
		for w := 0; w < ew; w++ {
			c := counts[w*nExt+x]
			counts[w*nExt+x] = int32(run)
			run += int64(c)
		}
	}
	if run > math.MaxInt32 {
		panic(fmt.Sprintf("extract: ext→statement incidence has %d entries, exceeding the int32 CSR offset space; shard the extraction set", run))
	}
	g.extStStart[nExt] = int32(run)
	g.extSts = make([]int32, run)
	g.extHits = make([]bool, run)
	csr.ParallelRange(nSt, ew, func(w, lo, hi int) {
		next := counts[w*nExt : (w+1)*nExt]
		stamp := make([]int32, nExt)
		for i := range stamp {
			stamp[i] = -1
		}
		for si := lo; si < hi; si++ {
			for _, x := range g.StatementExtractors(int32(si)) {
				stamp[x] = int32(si)
			}
			for _, x := range g.SourceExtractors(g.stSource[si]) {
				g.extSts[next[x]] = int32(si)
				g.extHits[next[x]] = stamp[x] == int32(si)
				next[x]++
			}
		}
	})
	g.extBlocks = csr.SpanBlocks(g.extStStart)
	g.buildExtHitsF()
}

// buildExtHitsF derives the float mirror of extHits: exactly 0 or 1 per
// entry, so multiplying an accumulation term by it reproduces the branchy
// hit test bit-for-bit (x*1 == x, and adding x*0 == +0 leaves a
// non-negative sum unchanged) while keeping the two-layer M-step block loop
// branch-free. Derived state, rebuilt on snapshot load like extBlocks.
func (g *Compiled) buildExtHitsF() {
	g.extHitsF = make([]float64, len(g.extHits))
	for i, h := range g.extHits {
		if h {
			g.extHitsF[i] = 1
		}
	}
}

// internShardThreshold is the extraction count below which interning runs
// sequentially: per-shard map setup and the ordered merge only pay off once
// the single-threaded hashing loop dominates (the shared cutoff of every
// shard-and-merge pass; tuned in internal/csr).
const internShardThreshold = csr.ParallelThreshold

// stKey identifies a statement: a distinct (source, triple) pair.
type stKey struct{ src, tri int32 }

// internSequential interns the extraction stream in order with one map per
// ID space (the maps live in idx and are retained for Append). The
// per-statement and per-source extractor lists are deduplicated here too;
// both are short (bounded by the extractor fleet), so linear scans beat
// maps.
func internSequential(g *Compiled, idx *extractIndex, xs []Extraction, siteLevel bool) (stExtLists, srcExtLists [][]int32) {
	for i := range xs {
		x := &xs[i]
		key := x.URL
		if siteLevel {
			key = x.Site
		}
		src, ok := idx.src[key]
		if !ok {
			src = int32(len(g.sources))
			idx.src[key] = src
			g.sources = append(g.sources, key)
			srcExtLists = append(srcExtLists, nil)
		}
		ext, ok := idx.ext[x.Extractor]
		if !ok {
			ext = int32(len(g.extractors))
			idx.ext[x.Extractor] = ext
			g.extractors = append(g.extractors, x.Extractor)
		}
		if !containsID(srcExtLists[src], ext) {
			srcExtLists[src] = append(srcExtLists[src], ext)
		}
		tri, ok := idx.tri[x.Triple]
		if !ok {
			tri = int32(len(g.triples))
			idx.tri[x.Triple] = tri
			g.triples = append(g.triples, x.Triple)
			item, iok := idx.item[x.Triple.Item()]
			if !iok {
				item = int32(len(g.items))
				idx.item[x.Triple.Item()] = item
				g.items = append(g.items, x.Triple.Item())
			}
			g.itemOfTriple = append(g.itemOfTriple, item)
		}
		si, ok := idx.st[stKey{src, tri}]
		if !ok {
			si = int32(len(g.stSource))
			idx.st[stKey{src, tri}] = si
			g.stSource = append(g.stSource, src)
			g.stTriple = append(g.stTriple, tri)
			stExtLists = append(stExtLists, nil)
		}
		if !containsID(stExtLists[si], ext) {
			stExtLists[si] = append(stExtLists[si], ext)
		}
	}
	return stExtLists, srcExtLists
}

// extShard is one worker's shard-local interning output: every ID space in
// shard-local first-occurrence order, plus the shard-local extractor lists
// and (filled during the merge) the local -> global remaps.
type extShard struct {
	sources, extractors []string
	triples             []kb.Triple
	stSrc, stTri        []int32   // per local statement: local source/triple ID
	stExtLists          [][]int32 // per local statement: local extractor IDs
	srcExtLists         [][]int32 // per local source: local extractor IDs
	srcRemap, extRemap  []int32   // local ID -> global ID (merge output)
}

// internParallel is the shard-and-merge interning pass: each worker interns
// a contiguous extraction range into shard-local ID spaces, the shard-local
// key lists merge into the global first-occurrence order, and shard-local
// IDs are remapped through the merged indexes. Because any key's first
// global occurrence lies in the earliest shard that saw it, and shard-local
// lists preserve stream order, the merged ID spaces (and the
// first-extraction-ordered extractor lists) are identical to
// internSequential's.
//
// The merges themselves run as csr.MergeKeys' ordered pairwise trees —
// adjacent shard pairs merged concurrently — so the formerly sequential
// key-merge walk (the bound ROADMAP called out on ExtractCompileParallel's
// scaling) parallelizes too: sources, extractors and triples merge
// concurrently with each other, then statements merge over globally-remapped
// (source, triple) keys built in parallel per shard. Only the extractor-list
// folds remain a sequential walk; their work per statement is bounded by the
// extractor fleet, not the corpus.
func internParallel(g *Compiled, idx *extractIndex, xs []Extraction, siteLevel bool, workers int) (stExtLists, srcExtLists [][]int32) {
	n := len(xs)
	if workers > n {
		workers = n
	}
	shards := make([]extShard, workers)
	csr.ParallelRange(n, workers, func(w, lo, hi int) {
		s := &shards[w]
		srcIdx := make(map[string]int32, 1024)
		extIdx := make(map[string]int32, 32)
		triIdx := make(map[kb.Triple]int32, hi-lo)
		stIdx := make(map[stKey]int32, hi-lo)
		for i := lo; i < hi; i++ {
			x := &xs[i]
			key := x.URL
			if siteLevel {
				key = x.Site
			}
			src, ok := srcIdx[key]
			if !ok {
				src = int32(len(s.sources))
				srcIdx[key] = src
				s.sources = append(s.sources, key)
				s.srcExtLists = append(s.srcExtLists, nil)
			}
			ext, ok := extIdx[x.Extractor]
			if !ok {
				ext = int32(len(s.extractors))
				extIdx[x.Extractor] = ext
				s.extractors = append(s.extractors, x.Extractor)
			}
			if !containsID(s.srcExtLists[src], ext) {
				s.srcExtLists[src] = append(s.srcExtLists[src], ext)
			}
			tri, ok := triIdx[x.Triple]
			if !ok {
				tri = int32(len(s.triples))
				triIdx[x.Triple] = tri
				s.triples = append(s.triples, x.Triple)
			}
			si, ok := stIdx[stKey{src, tri}]
			if !ok {
				si = int32(len(s.stSrc))
				stIdx[stKey{src, tri}] = si
				s.stSrc = append(s.stSrc, src)
				s.stTri = append(s.stTri, tri)
				s.stExtLists = append(s.stExtLists, nil)
			}
			if !containsID(s.stExtLists[si], ext) {
				s.stExtLists[si] = append(s.stExtLists[si], ext)
			}
		}
	})

	// Pairwise-merge the string/triple key spaces, concurrently with each
	// other.
	srcShards := make([][]string, workers)
	extShards := make([][]string, workers)
	triShards := make([][]kb.Triple, workers)
	for w := range shards {
		srcShards[w] = shards[w].sources
		extShards[w] = shards[w].extractors
		triShards[w] = shards[w].triples
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.sources, idx.src = csr.MergeKeys(srcShards, workers)
	}()
	go func() {
		defer wg.Done()
		g.extractors, idx.ext = csr.MergeKeys(extShards, workers)
	}()
	g.triples, idx.tri = csr.MergeKeys(triShards, workers)
	wg.Wait()

	// Items are interned from the merged triple list exactly as in the
	// sequential pass: a globally-new triple interns its item if unseen, and
	// the merged list is in stream first-occurrence order, so item IDs come
	// out in stream first-occurrence order too.
	for _, t := range g.triples {
		item, ok := idx.item[t.Item()]
		if !ok {
			item = int32(len(g.items))
			idx.item[t.Item()] = item
			g.items = append(g.items, t.Item())
		}
		g.itemOfTriple = append(g.itemOfTriple, item)
	}

	// Remap each shard's statement keys to global (source, triple) IDs in
	// parallel, then pairwise-merge the statement key space like the others.
	stKeyShards := make([][]stKey, workers)
	csr.ParallelRange(workers, workers, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			s := &shards[w]
			s.srcRemap = make([]int32, len(s.sources))
			for li, key := range s.sources {
				s.srcRemap[li] = idx.src[key]
			}
			s.extRemap = make([]int32, len(s.extractors))
			for li, key := range s.extractors {
				s.extRemap[li] = idx.ext[key]
			}
			triRemap := make([]int32, len(s.triples))
			for li, t := range s.triples {
				triRemap[li] = idx.tri[t]
			}
			keys := make([]stKey, len(s.stSrc))
			for lsi := range s.stSrc {
				keys[lsi] = stKey{s.srcRemap[s.stSrc[lsi]], triRemap[s.stTri[lsi]]}
			}
			stKeyShards[w] = keys
		}
	})
	var stKeys []stKey
	stKeys, idx.st = csr.MergeKeys(stKeyShards, workers)
	g.stSource = make([]int32, len(stKeys))
	g.stTriple = make([]int32, len(stKeys))
	for si, k := range stKeys {
		g.stSource[si] = k.src
		g.stTriple[si] = k.tri
	}

	// Fold the per-statement and per-source extractor lists shard by shard
	// (stream order), preserving first-extraction order across shards.
	stExtLists = make([][]int32, len(stKeys))
	srcExtLists = make([][]int32, len(g.sources))
	for w := range shards {
		s := &shards[w]
		for lsi := range s.stSrc {
			gsi := idx.st[stKeyShards[w][lsi]]
			for _, lx := range s.stExtLists[lsi] {
				if gx := s.extRemap[lx]; !containsID(stExtLists[gsi], gx) {
					stExtLists[gsi] = append(stExtLists[gsi], gx)
				}
			}
		}
		for ls := range s.srcExtLists {
			gs := s.srcRemap[ls]
			for _, lx := range s.srcExtLists[ls] {
				if gx := s.extRemap[lx]; !containsID(srcExtLists[gs], gx) {
					srcExtLists[gs] = append(srcExtLists[gs], gx)
				}
			}
		}
	}
	return stExtLists, srcExtLists
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// flattenLists concatenates per-ID lists into a CSR (start, flat) pair.
func flattenLists(lists [][]int32) (start, flat []int32) {
	start = make([]int32, len(lists)+1)
	total := 0
	for i, l := range lists {
		start[i] = int32(total)
		total += len(l)
	}
	start[len(lists)] = int32(total)
	flat = make([]int32, 0, total)
	for _, l := range lists {
		flat = append(flat, l...)
	}
	return start, flat
}

// ---- Read-only accessors ----
//
// All returned slices are views into the compiled graph and must not be
// modified.

// SiteLevel reports whether sources are keyed at site level.
func (g *Compiled) SiteLevel() bool { return g.siteLevel }

// Generation reports how many Appends produced this handle (0 for a fresh
// Compile).
func (g *Compiled) Generation() int { return g.gen }

// NumStatements reports the number of distinct (source, triple) pairs.
func (g *Compiled) NumStatements() int { return len(g.stSource) }

// NumSources reports the number of distinct sources.
func (g *Compiled) NumSources() int { return len(g.sources) }

// NumExtractors reports the number of distinct extractors.
func (g *Compiled) NumExtractors() int { return len(g.extractors) }

// NumTriples reports the number of distinct candidate triples.
func (g *Compiled) NumTriples() int { return len(g.triples) }

// NumItems reports the number of distinct data items.
func (g *Compiled) NumItems() int { return len(g.items) }

// SourceKey returns the URL or site key of a source ID.
func (g *Compiled) SourceKey(s int32) string { return g.sources[s] }

// ExtractorName returns the name of an extractor ID.
func (g *Compiled) ExtractorName(e int32) string { return g.extractors[e] }

// SourceKeys and ExtractorNames expose the dense ID -> key slices themselves
// (read-only views, not copies) — what a one-graph two-layer run uses as its
// identity ID tables.
func (g *Compiled) SourceKeys() []string     { return g.sources }
func (g *Compiled) ExtractorNames() []string { return g.extractors }

// Triple returns the triple with the given triple ID.
func (g *Compiled) Triple(t int32) kb.Triple { return g.triples[t] }

// Item returns the data item with the given item ID.
func (g *Compiled) Item(i int32) kb.DataItem { return g.items[i] }

// StatementSource returns the source ID of a statement.
func (g *Compiled) StatementSource(si int32) int32 { return g.stSource[si] }

// StatementTriple returns the triple ID of a statement.
func (g *Compiled) StatementTriple(si int32) int32 { return g.stTriple[si] }

// StatementExtractors returns the distinct extractor IDs that extracted the
// statement, in first-extraction order.
func (g *Compiled) StatementExtractors(si int32) []int32 {
	return g.stExts[g.stExtStart[si]:g.stExtStart[si+1]]
}

// SourceExtractors returns the distinct extractor IDs that processed the
// source, in first-extraction order.
func (g *Compiled) SourceExtractors(s int32) []int32 {
	return g.srcExts[g.srcExtStart[s]:g.srcExtStart[s+1]]
}

// SourceStatements returns the statement IDs of a source in ascending order.
func (g *Compiled) SourceStatements(s int32) []int32 {
	return g.srcSts[g.srcStStart[s]:g.srcStStart[s+1]]
}

// TripleStatements returns the statement IDs asserting a triple in ascending
// order.
func (g *Compiled) TripleStatements(t int32) []int32 {
	return g.tripleSts[g.tripleStStart[t]:g.tripleStStart[t+1]]
}

// TripleExtractors returns the number of distinct extractors asserting the
// triple anywhere.
func (g *Compiled) TripleExtractors(t int32) int32 { return g.tripleExts[t] }

// ItemOfTriple returns the item ID of a triple.
func (g *Compiled) ItemOfTriple(t int32) int32 { return g.itemOfTriple[t] }

// ItemTriples returns the candidate triple IDs of an item in ascending order.
func (g *Compiled) ItemTriples(i int32) []int32 {
	return g.itemTriples[g.itemTripleStart[i]:g.itemTripleStart[i+1]]
}

// ItemStatements returns the total statement count on an item.
func (g *Compiled) ItemStatements(i int32) int32 { return g.itemStatements[i] }

// ExtStatements returns, for an extractor, the statements whose source it
// processed in ascending statement order, and the aligned hit flags marking
// the statements it actually extracted there.
func (g *Compiled) ExtStatements(x int32) (sts []int32, hits []bool) {
	return g.extSts[g.extStStart[x]:g.extStStart[x+1]], g.extHits[g.extStStart[x]:g.extStStart[x+1]]
}

// ExtStatementBlocks returns the fixed csr.ReduceBlockSize partition of the
// ext→statement spans: blocks are grouped by extractor in extractor-ID order
// (Block.Group is the extractor ID). The partition depends only on the span
// lengths, so reductions over it are bit-identical for any worker count.
func (g *Compiled) ExtStatementBlocks() []csr.Block { return g.extBlocks }

// ExtBlockStatements returns one block's slice of the ext→statement
// incidence: statement IDs (ascending) and aligned hit flags.
func (g *Compiled) ExtBlockStatements(b csr.Block) (sts []int32, hits []bool) {
	return g.extSts[b.Lo:b.Hi], g.extHits[b.Lo:b.Hi]
}

// ExtBlockStatementsF is ExtBlockStatements with the hit flags as 0/1
// floats — the branch-free form the two-layer M-step block reduction
// consumes (multiply by the flag instead of testing it).
func (g *Compiled) ExtBlockStatementsF(b csr.Block) (sts []int32, hitsF []float64) {
	return g.extSts[b.Lo:b.Hi], g.extHitsF[b.Lo:b.Hi]
}

// MaxItemTriples returns the largest candidate-triple count of any item.
func (g *Compiled) MaxItemTriples() int { return g.maxItemTriples }
