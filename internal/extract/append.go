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
// The batch interns through internBatch, the one sequential loop, on the
// claim graph's substrate: open-addressed csr.InternTables over the key
// columns, a csr.PairTable for statements keyed by the packed (source ID,
// triple ID) word, and the batch's extractor-list additions as chains through
// one flat entry pool (extLists), which flatten reads back in
// first-extraction order. A from-empty batch presizes every table and key
// column from its length (presize); an Append onto compiled statements
// presizes only the batch's own lists. Every batch, whatever its size and the
// worker count, interns through this one loop; workers bound only the passes
// after it (the CSRs and the per-triple extractor recount). A
// shard-and-merge pass like the claim graph's (csr.ShardIntern) was slower
// than the loop at every worker count it was timed at (ROADMAP item 4(d)).
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
// the batch's additions the same way, and the support counts are extended by
// copy and recounted only where the batch touched them, in ascending triple
// order. The ext→statement
// incidence is merged as well (mergeExtStatements), though its rows cannot
// simply be extended at the end — a batch that pairs an old source with an
// extractor for the first time puts all of that source's old statements into
// the extractor's span, between the ones already there: old spans move in
// runs, those joiners merge in at their places, new statements follow, and an
// old miss the batch turned into a hit is flipped where it stands. A compile
// merges onto the empty incidence, so every incidence has this one builder.
// No string or triple is re-hashed for the prefix.
//
// A generation remembers three things about the one it was built from
// (Compiled.Parent): that generation's token, its statement count, and which
// of its statements the batch added an extractor to — what extend knows
// anyway and a consumer holding per-statement state of exactly that
// generation needs in order to revise it rather than recompute it (the
// two-layer step engines, twolayer.FuseLockstep). The token is a
// process-unique number and not a pointer on purpose: chains are long-lived,
// and a generation that referenced its parent would keep every ancestor's
// CSRs reachable.

import (
	"fmt"
	"math"
	"slices"

	"kfusion/internal/csr"
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
	nStOld := len(g.stSource)
	next := &Compiled{idx: idx, graph: &graph{
		siteLevel:      g.siteLevel,
		columns:        idx.cols,
		maxItemTriples: g.maxItemTriples,
	}}

	// ---- Intern the batch, continuing the retained index ----
	stExts := extLists{oldStart: g.stExtStart, oldFlat: g.stExts}
	srcExts := extLists{oldStart: g.srcExtStart, oldFlat: g.srcExts}
	if nStOld > 0 {
		// An extraction adds at most one row and one entry to each list.
		stExts.presize(len(xs), len(xs))
		srcExts.presize(len(xs), len(xs))
	} else {
		presize(next, idx, len(xs), &stExts, &srcExts)
	}
	internBatch(next, idx, xs, &stExts, &srcExts)

	// ---- Re-flatten the extractor lists around the additions ----
	// The old statements and old sources the batch added an extractor to, in
	// ascending order: everything after this that revisits them walks these.
	grownSts, grownSrcs := stExts.grownRows(), srcExts.grownRows()
	next.stExtStart, next.stExts = stExts.flatten(grownSts)
	next.srcExtStart, next.srcExts = srcExts.flatten(grownSrcs)
	next.extendTail(g, idx, &stExts, &srcExts, grownSts, grownSrcs, workers)
	return next
}

// extendTail is extend's post-intern half: next holds g's statements and the
// batch's, interned, with their extractor lists flattened (stExts and srcExts
// are the batch's additions, grownSts and grownSrcs the rows of g's they
// grew), and extendTail derives the rest of the generation — items, the CSRs,
// the support counts and the ext→statement incidence — around g's arrays.
// DecodeSnapshot runs it over the empty generation on decoded columns, with
// empty lists: every decoded row is new.
func (next *Compiled) extendTail(g *Compiled, idx *extractIndex, stExts, srcExts *extLists, grownSts, grownSrcs []int32, workers int) {
	nStOld := len(g.stSource)
	nTriOld := len(g.triples)
	internItems(next, idx, nTriOld)
	nTriples := len(next.triples)
	nItems := len(next.items)

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
		touched := make([]int32, 0, len(next.stSource)-nStOld+len(grownSts))
		for _, t := range next.stTriple[nStOld:] {
			if int(t) < nTriOld {
				touched = append(touched, t)
			}
		}
		for _, si := range grownSts {
			touched = append(touched, next.stTriple[si])
		}
		slices.Sort(touched)
		seen := unseen(len(next.extractors))
		for _, t := range slices.Compact(touched) {
			next.recountTriple(t, seen)
		}
	}

	// ---- Ext→statement incidence: merged from g's ----
	next.mergeExtStatements(g.graph, stExts, srcExts, grownSts, grownSrcs)

	// What the next generation remembers of this one (see Compiled.Parent).
	next.token = graphSeq.Add(1)
	next.parent, next.parentSts, next.grownSts = g.token, nStOld, grownSts
	// The index keeps the spare capacity; the generation sees its own prefix.
	idx.cols, next.columns = next.columns, next.columns.clipped()
}

// mergeExtStatements builds the ext→statement incidence of a generation that
// extends prev out of prev's; it is the only builder (a compile or a decode
// extends the empty generation). Per extractor: the statements whose source
// it processed (extSts, ascending), a hit flag for those it extracted
// (extHitsF), cut into csr.ReduceBlockSize blocks (extBlocks) for the
// two-layer M-step. The new span is, in ascending statement order:
//
//   - prev's span, moved in runs with its hit flags;
//   - merged into it, the joiners: every old statement of an old source the
//     batch paired with the extractor for the first time (srcExts.grown) —
//     the one way a batch puts old statement IDs into a span, and why spans
//     cannot simply be extended at the end. A joiner's flag is read off the
//     statement's extractor list;
//   - after all of those, the new statements of every source the extractor
//     has processed (new IDs exceed all old ones), flags derived likewise.
//
// An old statement that an extractor already covering it extracted for the
// first time in this batch (stExts.grown) keeps its position and flips its
// flag, found by binary search. Everything is walked in ascending ID order
// (grownSts, grownSrcs are the sorted rows of the two grown maps), so the
// result does not depend on map iteration.
func (g *Compiled) mergeExtStatements(prev *graph, stExts, srcExts *extLists, grownSts, grownSrcs []int32) {
	nExt, nExtOld := len(g.extractors), len(prev.extractors)
	nStOld := len(prev.stSource)
	oldSpan := func(x int) (lo, hi int32) {
		if x < nExtOld {
			return prev.extStStart[x], prev.extStStart[x+1]
		}
		return 0, 0
	}

	// Joiners per extractor: count, lay out, fill in ascending source order,
	// then order each extractor's segment by statement ID (the statements of
	// two sources interleave).
	joinStart := make([]int32, nExt+1)
	var buf []int32 // one grown row's additions
	for _, s := range grownSrcs {
		n := prev.srcStStart[s+1] - prev.srcStStart[s]
		buf = srcExts.added(buf[:0], s)
		for _, x := range buf {
			joinStart[x+1] += n
		}
	}
	for x := 0; x < nExt; x++ {
		joinStart[x+1] += joinStart[x]
	}
	joiners := make([]int32, joinStart[nExt])
	at := slices.Clone(joinStart[:nExt])
	for _, s := range grownSrcs {
		sts := prev.srcSts[prev.srcStStart[s]:prev.srcStStart[s+1]]
		buf = srcExts.added(buf[:0], s)
		for _, x := range buf {
			at[x] += int32(copy(joiners[at[x]:], sts))
		}
	}
	// New statements per extractor.
	fresh := make([]int32, nExt)
	for _, s := range g.stSource[nStOld:] {
		for _, x := range g.SourceExtractors(s) {
			fresh[x]++
		}
	}

	// The incidence is a product space — the sum over sources of
	// |extractors(src)| x |statements(src)| — so unlike the ID spaces it is
	// not bounded by the extraction count; run the prefix sum in int64 and
	// refuse to build corrupt int32 spans if it ever crosses 2^31.
	g.extStStart = make([]int32, nExt+1)
	run := int64(0)
	for x := 0; x < nExt; x++ {
		g.extStStart[x] = int32(run)
		lo, hi := oldSpan(x)
		run += int64(hi-lo) + int64(joinStart[x+1]-joinStart[x]) + int64(fresh[x])
	}
	if run > math.MaxInt32 {
		panic(fmt.Sprintf("extract: ext→statement incidence has %d entries, exceeding the int32 CSR offset space; shard the extraction set", run))
	}
	g.extStStart[nExt] = int32(run)
	g.extSts = make([]int32, run)
	g.extHitsF = make([]float64, run)
	put := func(o int32, si, x int32) {
		g.extSts[o] = si
		if containsID(g.StatementExtractors(si), x) {
			g.extHitsF[o] = 1
		}
	}

	// Old spans with their joiners merged in; tail[x] is left at the first
	// slot for x's new statements.
	tail := make([]int32, nExt)
	for x := 0; x < nExt; x++ {
		lo, hi := oldSpan(x)
		old := prev.extSts[lo:hi]
		o := g.extStStart[x]
		moveRun := func(n int) { // the next n entries of old, as they are
			copy(g.extSts[o:], old[:n])
			copy(g.extHitsF[o:], prev.extHitsF[lo:lo+int32(n)])
			old, lo, o = old[n:], lo+int32(n), o+int32(n)
		}
		join := joiners[joinStart[x]:joinStart[x+1]]
		slices.Sort(join)
		for _, si := range join {
			n, _ := slices.BinarySearch(old, si)
			moveRun(n)
			put(o, si, int32(x))
			o++
		}
		moveRun(len(old))
		tail[x] = o
	}
	for i, s := range g.stSource[nStOld:] {
		for _, x := range g.SourceExtractors(s) {
			put(tail[x], int32(nStOld+i), x)
			tail[x]++
		}
	}
	// Old misses the batch turned into hits. The extractor covers the
	// statement's source — it has just extracted from it — so the statement is
	// in the old part of its span, as a moved entry or as a joiner.
	for _, si := range grownSts {
		buf = stExts.added(buf[:0], si)
		for _, x := range buf {
			span := g.extSts[g.extStStart[x]:g.extStStart[x+1]]
			k, ok := slices.BinarySearch(span, si)
			if !ok {
				panic(fmt.Sprintf("extract: statement %d extracted by extractor %d is missing from its span", si, x))
			}
			g.extHitsF[int(g.extStStart[x])+k] = 1
		}
	}
	g.extBlocks = csr.SpanBlocks(g.extStStart)
}

// rebuildIndex reconstructs the interning index from the immutable graph, for
// a generation whose index another Append already took (or that was decoded
// from a snapshot). The rebuild hashes each distinct key once (not once per
// extraction); it exists for correctness — chained appends never hit it.
func (g *Compiled) rebuildIndex() *extractIndex {
	return &extractIndex{
		// Clipped, so this index's first append copies each column once and
		// then owns its own tail: a fork never writes another chain's.
		cols: g.columns.clipped(),
		src:  csr.BuildInternTable(g.sources, nil),
		ext:  csr.BuildInternTable(g.extractors, nil),
		tri:  csr.BuildInternTable(g.triples, csr.HashTriple),
		item: csr.BuildInternTable(g.items, csr.HashItem),
		st:   statementTable(g.stSource, g.stTriple),
	}
}
