package extract

// Append: the extraction graph as one generation of an append-only feed.
//
// The paper's setting is a continuously crawled Web — extraction feeds grow,
// they are not recompiled from scratch — so every compiled graph is one
// generation of a growing feed, and there is one compile path: extend, which
// interns a batch onto a generation and assembles the next one. Compile is
// the first Append (the empty generation extended by the whole set), so
// Append ≡ recompile holds by construction, bit for bit: every ID space is
// assigned in first-occurrence order, so the IDs of existing sources,
// extractors, triples, items and statements never move — only the batch is
// hashed, against the interning index the previous generation left behind.
//
// The batch interns through internBatch, the one sequential loop. The
// shard-and-merge pass (internParallel: the same loop per shard, then an
// ordered merge) is chosen from what extend can observe — the batch reaches
// csr.ParallelThreshold, more than one worker is allowed, and nothing is
// interned yet — which is a bulk Compile, or a first Append onto an empty
// generation. Both produce the same graph.
//
// The columns that only grow at the end (source and extractor keys, the
// statement → source / triple columns, triples, items, triple → item) are
// shared along a chain of generations: the interning index holds them with
// their spare capacity and extends them in place, and each generation keeps
// the cap-clipped prefix of its own length (see columns in graph.go). A
// second Append on a generation whose index was taken rebuilds the index
// over the clipped columns, so it copies them once and then owns its own
// tail.
//
// The assemble tail rebuilds what a batch rewrites for old IDs around the
// previous generation's arrays, which are only read: the per-source,
// per-triple and per-item spans merge through csr.AppendByGroup (new IDs all
// exceed old ones, so each span is oldSpan ++ newIDs; untouched runs of
// groups move as one copy), the flattened extractor lists re-flatten around
// the batch's additions the same way, the support counts are extended by
// copy and recounted only where the batch touched them, and the
// ext→statement incidence — whose rows can interleave old and new statements
// when a batch introduces a new (extractor, source) pairing — is rebuilt by
// one parallel pass over all statements. No string or triple is re-hashed for
// the prefix.

import (
	"runtime"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
)

// Append extends the compiled graph with an extraction batch and returns the
// next generation, using all available cores. The result is bit-identical to
// Compile over the concatenated extraction stream (Compile is this path run
// from the empty generation); existing IDs are stable. The receiver stays
// fully usable, also concurrently with this and later Appends (no word it can
// address is ever written); the mutable interning index moves to the returned
// generation, so appends should chain (g0 -> g1 -> g2 ...) — a second Append
// on the same generation is correct but rebuilds the index and copies the
// shared columns once. An Append that adds nothing costs O(1): it returns the
// next generation over the receiver's arrays.
func (g *Compiled) Append(xs []Extraction) *Compiled {
	return g.AppendWorkers(xs, 0)
}

// AppendWorkers is Append with an explicit worker bound (0 = GOMAXPROCS).
// The graph is identical for any workers value.
func (g *Compiled) AppendWorkers(xs []Extraction, workers int) *Compiled {
	g.mu.Lock()
	idx := g.idx
	g.idx = nil
	g.mu.Unlock()
	if len(xs) == 0 {
		// The graph is immutable, so the next generation shares it; the
		// index, if this generation still held it, moves on as always.
		return &Compiled{graph: g.graph, gen: g.gen + 1, idx: idx}
	}
	if idx == nil {
		idx = g.rebuildIndex()
	}
	next := g.extend(idx, xs, workers)
	next.gen = g.gen + 1
	return next
}

// extend is the one compile path: it interns xs onto generation g, whose
// index is idx, and assembles the graph of the next one (generation counter
// left to the caller). The append-only columns are extended in place through
// idx.cols — g holds their clipped prefixes, which are never written — and g's
// other arrays are only read.
func (g *Compiled) extend(idx *extractIndex, xs []Extraction, workers int) *Compiled {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nStOld := len(g.stSource)
	nTriOld := len(g.triples)
	next := &Compiled{idx: idx, graph: &graph{
		siteLevel:      g.siteLevel,
		columns:        idx.cols,
		maxItemTriples: g.maxItemTriples,
	}}

	// ---- Intern the batch, continuing the retained index ----
	stExts := extLists{oldStart: g.stExtStart, oldFlat: g.stExts}
	srcExts := extLists{oldStart: g.srcExtStart, oldFlat: g.srcExts}
	switch {
	case nStOld > 0:
		internBatch(next, idx, xs, &stExts, &srcExts)
	case len(xs) >= internShardThreshold && workers > 1:
		internParallel(next, idx, xs, workers, &stExts, &srcExts)
	default:
		idx.presize(len(xs))
		internBatch(next, idx, xs, &stExts, &srcExts)
	}
	internItems(next, idx, nTriOld)

	nTriples := len(next.triples)
	nItems := len(next.items)

	// ---- Re-flatten the extractor lists around the additions ----
	next.stExtStart, next.stExts = stExts.flatten()
	next.srcExtStart, next.srcExts = srcExts.flatten()

	// ---- CSR adjacency by ordered span merge ----
	next.srcStStart, next.srcSts = csr.AppendByGroup(g.srcStStart, g.srcSts, next.stSource[nStOld:], len(next.sources), workers)
	next.tripleStStart, next.tripleSts = csr.AppendByGroup(g.tripleStStart, g.tripleSts, next.stTriple[nStOld:], nTriples, workers)
	next.itemTripleStart, next.itemTriples = csr.AppendByGroup(g.itemTripleStart, g.itemTriples, next.itemOfTriple[nTriOld:], nItems, workers)
	// Only an item that gained a triple can raise the previous maximum.
	for _, i := range next.itemOfTriple[nTriOld:] {
		next.maxItemTriples = max(next.maxItemTriples, int(next.itemTripleStart[i+1]-next.itemTripleStart[i]))
	}

	// ---- Support counts: extend, then recount only what the batch touched ----
	// Statements per item (the two-layer result's ItemProvenances).
	next.itemStatements = csr.ExtendInt32(g.itemStatements, nItems)
	for _, t := range next.stTriple[nStOld:] {
		next.itemStatements[next.itemOfTriple[t]]++
	}
	// Distinct extractors per triple. The new triples are a range, recounted
	// in parallel: each worker stamps a private seen-set with the triple ID,
	// so counts are exact and independent of the split.
	next.tripleExts = csr.ExtendInt32(g.tripleExts, nTriples)
	tw := workers
	if nTriples-nTriOld < internShardThreshold {
		tw = 1 // goroutine setup would dominate
	}
	csr.ParallelRange(nTriples-nTriOld, tw, func(_, lo, hi int) {
		seen := unseen(len(next.extractors))
		for t := nTriOld + lo; t < nTriOld+hi; t++ {
			next.recountTriple(int32(t), seen)
		}
	})
	// The old triples the batch touched, through a new statement or a new
	// extractor on an old one.
	if nTriOld > 0 {
		touched := make(map[int32]bool, len(next.stSource)-nStOld+len(stExts.grown))
		for _, t := range next.stTriple[nStOld:] {
			if int(t) < nTriOld {
				touched[t] = true
			}
		}
		for si := range stExts.grown {
			touched[next.stTriple[si]] = true
		}
		seen := unseen(len(next.extractors))
		//lint:ignore kflint/mapiter recountTriple overwrites only triple t's count, and the seen scratch is stamped with t itself so stale entries from other triples are ignored — per-key effects are disjoint.
		for t := range touched {
			next.recountTriple(t, seen)
		}
	}

	// The ext→statement incidence interleaves old and new statement IDs when
	// the batch adds an extractor to an existing source (every old statement
	// of that source joins the extractor's span), so it is rebuilt whole.
	next.buildExtStatements(workers)
	// The index keeps the spare capacity; the generation sees its own prefix.
	idx.cols, next.columns = next.columns, next.columns.clipped()
	return next
}

// rebuildIndex reconstructs the interning index from the immutable graph, for
// a generation whose index another Append already took (or that was decoded
// from a snapshot). The rebuild hashes each distinct key once (not once per
// extraction); it exists for correctness — chained appends never hit it.
func (g *Compiled) rebuildIndex() *extractIndex {
	// The columns are clipped, so this index's first append copies each once
	// and then owns its own tail: a fork never writes another chain's.
	idx := &extractIndex{cols: g.columns.clipped(), item: make(map[kb.DataItem]int32, len(g.items))}
	idx.presize(len(g.stSource))
	for s, key := range g.sources {
		idx.src[key] = int32(s)
	}
	for x, key := range g.extractors {
		idx.ext[key] = int32(x)
	}
	for t := range g.triples {
		idx.tri[g.triples[t]] = int32(t)
	}
	for i := range g.items {
		idx.item[g.items[i]] = int32(i)
	}
	for si := range g.stSource {
		idx.st[stKey{g.stSource[si], g.stTriple[si]}] = int32(si)
	}
	return idx
}
