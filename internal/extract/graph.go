package extract

import (
	"slices"
	"sync"
	"sync/atomic"

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
//   - StatementHitList names a statement's extractor list: equal lists (in
//     their stored order) share an ID. It is the one exception to the rule
//     above — its numbering follows the append history, not the stream
//     alone (see hitlists.go).
//   - SourceExtractors lists the distinct extractors with at least one
//     extraction from the source, in first-extraction order — the "which
//     extractors processed this source" set the two-layer model scores
//     silence against.
//   - SourceStatements, TripleStatements and ItemTriples are CSR spans in
//     ascending ID order (the same order the map-based reference model
//     appends them in).
//   - ExtBlockStatementsF spans (the ext→statement CSR) list, per extractor,
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
//
// A Compiled is also one generation of an append-only extraction feed; see
// Append. Compile is the first Append — the empty generation extended by the
// whole extraction set — so the two cannot diverge.
type Compiled struct {
	*graph

	// gen counts the Appends that produced this handle (0 for a fresh
	// Compile).
	gen int

	// idx is the interning byproduct Append consumes: the key -> ID tables of
	// every interned space. The first Append on this generation takes it
	// (and hands it to the generation it returns); a later Append on the
	// same generation rebuilds it from the graph — correct, just slower.
	// Guarded by mu; the graph itself is immutable.
	mu  sync.Mutex
	idx *extractIndex
}

// graph is the immutable part of a Compiled: every array of one generation.
// An Append that adds nothing shares it with the generation it returns.
type graph struct {
	siteLevel bool

	// The columns that only grow at the end, cap-clipped to this generation's
	// lengths (see columns).
	columns

	// Statements: distinct (source, triple) pairs.
	stExtStart []int32 // len nStatements+1; span into stExts
	stExts     []int32 // extractor IDs per statement, first-extraction order

	// stHitList names each statement's extractor list (hitlists.go): equal
	// ordered lists, equal IDs, all below nHitLists. The numbering follows
	// the append history, so dumpGraph and the snapshot leave it out.
	stHitList []int32
	nHitLists int

	// Per-source adjacency.
	srcExtStart []int32 // len nSources+1; span into srcExts
	srcExts     []int32 // distinct extractor IDs per source, first-extraction order
	srcStStart  []int32 // len nSources+1; span into srcSts
	srcSts      []int32 // statement IDs per source, ascending

	// Candidate triples and data items.
	tripleStStart   []int32 // len nTriples+1; span into tripleSts
	tripleSts       []int32 // statement IDs per triple, ascending
	tripleExts      []int32 // triple ID -> distinct extractor count
	itemTripleStart []int32 // len nItems+1; span into itemTriples
	itemTriples     []int32 // triple IDs per item, ascending
	itemStatements  []int32 // item ID -> total statements on the item

	// Ext→statement incidence: for each extractor, the statements whose
	// source it processed (ascending statement order), with a parallel hit
	// flag for the statements it extracted. This is the two-layer M-step's
	// reduction domain; extBlocks is its fixed csr.ReduceBlockSize partition.
	// A flag is a float, exactly 0 or 1, so multiplying an accumulation term
	// by it reproduces the branchy hit test bit-for-bit (x*1 == x, and adding
	// x*0 == +0 leaves a non-negative sum unchanged) while keeping the M-step
	// block loop branch-free.
	extStStart []int32     // len nExtractors+1; span into extSts/extHitsF
	extSts     []int32     // statement IDs per extractor, ascending
	extHitsF   []float64   // aligned with extSts: 1 if the extractor extracted it, else 0
	extBlocks  []csr.Block // fixed-size blocks covering the extStStart spans

	// maxItemTriples is the largest candidate count of any single item; it
	// sizes per-worker scoring scratch.
	maxItemTriples int

	// Lineage: the graph's own identity and what extend saw of the generation
	// it built this one from (see Token and Parent). Process-local and never
	// serialized; a decoded graph is nobody's successor.
	token     uint64
	parent    uint64  // the extended generation's token; 0 when there was none
	parentSts int     // its statement count
	grownSts  []int32 // its statements whose extractor list the batch grew, ascending
}

// graphSeq issues graph tokens; 0 is never issued and stands for "no graph".
var graphSeq atomic.Uint64

// columns are the ID-indexed columns an Append never rewrites for an existing
// ID — it only adds entries at the end. A chain of generations shares one
// backing array per column: the interning index, which exactly one generation
// owns at a time, holds each column with its spare capacity and extends it in
// place (amortised append), and every graph holds the cap-clipped prefix
// col[:n:n] of its own generation. A reader of an older generation, an
// accessor's caller or a decoded snapshot can thus never reach the tail the
// chain is still writing, and the chain never writes below the length of any
// generation it has handed out. Everything a batch rewrites for old IDs (the
// CSRs, the flattened extractor lists, the support counts) lives in graph and
// is copied per generation.
type columns struct {
	sources    []string // source ID -> URL or site key
	extractors []string // extractor ID -> name

	stSource []int32 // statement ID -> source ID
	stTriple []int32 // statement ID -> triple ID

	triples      []kb.Triple   // triple ID -> triple
	items        []kb.DataItem // item ID -> data item
	itemOfTriple []int32       // triple ID -> item ID
}

// clipped returns the columns with every capacity cut to its length, so an
// append through the result reallocates instead of writing a shared tail.
func (c columns) clipped() columns {
	return columns{
		sources:      slices.Clip(c.sources),
		extractors:   slices.Clip(c.extractors),
		stSource:     slices.Clip(c.stSource),
		stTriple:     slices.Clip(c.stTriple),
		triples:      slices.Clip(c.triples),
		items:        slices.Clip(c.items),
		itemOfTriple: slices.Clip(c.itemOfTriple),
	}
}

// extractIndex is the mutable interning state a compilation leaves behind so
// Append can extend the ID spaces without re-hashing the prefix. Every ID
// space interns through the claim graph's substrate: an open-addressed
// csr.InternTable over the dense key column it numbers (sources, extractors,
// triples, items), and for statements a csr.PairTable keyed by the packed
// (source ID, triple ID) word, which needs no key column at all.
type extractIndex struct {
	// cols are the owning generation's append-only columns with their spare
	// capacity: the one handle through which the shared tails are written.
	cols columns

	src  csr.InternTable[string]
	ext  csr.InternTable[string]
	tri  csr.InternTable[kb.Triple]
	item csr.InternTable[kb.DataItem]
	st   csr.PairTable

	// lists interns the statements' extractor lists (hitlists.go); hitLists
	// is the statement -> hit-list ID column of the generation that owns the
	// index, under this table's numbering.
	lists    listTable
	hitLists []int32
}

// presize readies g's empty ID spaces, idx's tables and the extractor lists
// for a from-empty stream of n extractions, so the interning loop appends
// into allocations sized once instead of growing every column from nothing.
// The priors are the bench corpus's: statements run close to the extraction
// count, distinct triples to about 0.4 of it (sized at half, the claim
// graph's prior), URL-level sources to about 0.13 and (source, extractor)
// pairs to about 0.45. Undershooting costs one growth; overshooting is held
// by the index for as long as its generation is.
func presize(g *Compiled, idx *extractIndex, n int, stExts, srcExts *extLists) {
	idx.src = csr.NewInternTable[string](n/4, nil)
	idx.ext = csr.NewInternTable[string](32, nil)
	idx.tri = csr.NewInternTable(n/2, csr.HashTriple)
	idx.st = csr.NewPairTable(n)
	g.sources = make([]string, 0, n/4+16)
	g.extractors = make([]string, 0, 32)
	g.triples = make([]kb.Triple, 0, n/2+16)
	g.stSource = make([]int32, 0, n)
	g.stTriple = make([]int32, 0, n)
	stExts.presize(n, n)
	srcExts.presize(n/4+16, n/2+16)
}

// Compile interns an extraction set into a reusable Compiled graph using all
// available cores. siteLevel keys sources at site level instead of URL level.
// The graph is deterministic for a fixed extraction order and independent of
// available parallelism.
func Compile(xs []Extraction, siteLevel bool) *Compiled {
	return CompileWorkers(xs, siteLevel, 0)
}

// CompileWorkers is Compile with an explicit bound on the CSR-building
// goroutines (0 = GOMAXPROCS). The CSR builds split from two workers on;
// interning is the one sequential loop at every workers value (see extend).
// The graph is identical for any workers value.
func CompileWorkers(xs []Extraction, siteLevel bool, workers int) *Compiled {
	empty := &Compiled{graph: &graph{siteLevel: siteLevel}}
	return empty.extend(&extractIndex{}, xs, workers)
}

// recountTriple recomputes one triple's distinct-extractor count using a
// caller-owned seen-set stamped with the triple ID, so the scratch is never
// cleared between triples.
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

// unseen returns a stamp scratch over n extractors matching no triple or
// statement ID.
func unseen(n int) []int32 {
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	return seen
}

// internBatch is the one sequential interning loop: it assigns source,
// extractor, triple and statement IDs to xs in stream order, continuing
// whatever idx and g's ID spaces already hold, and records each extraction's
// extractor against its statement and its source (stExts, srcExts). The
// extractor lists are short (bounded by the extractor fleet), so linear scans
// beat maps. Items are interned afterwards from the new triples (internItems).
//
// A feed lists a page's extractions together and an extractor's output in
// runs, so last-seen caches answer most source and extractor lookups without
// hashing, and a repeated (source, extractor) pair skips its list scan.
// Triples do not repeat consecutively; a statement costs one word probe.
func internBatch(g *Compiled, idx *extractIndex, xs []Extraction, stExts, srcExts *extLists) {
	lastKey, lastExt := "", ""
	var src, ext int32
	pairSrc, pairExt := int32(-1), int32(-1)
	for i := range xs {
		x := &xs[i]
		key := x.URL
		if g.siteLevel {
			key = x.Site
		}
		if key != lastKey || i == 0 {
			var added bool
			if src, added = idx.src.Intern(idx.src.Hash(key), &g.sources, key); added {
				srcExts.addRow()
			}
			lastKey = key
		}
		if x.Extractor != lastExt || i == 0 {
			ext, _ = idx.ext.Intern(idx.ext.Hash(x.Extractor), &g.extractors, x.Extractor)
			lastExt = x.Extractor
		}
		if src != pairSrc || ext != pairExt {
			srcExts.add(src, ext)
			pairSrc, pairExt = src, ext
		}
		tri, _ := idx.tri.Intern(csr.HashTriple(x.Triple), &g.triples, x.Triple)
		si, added := idx.st.Intern(src, tri, int32(len(g.stSource)))
		if added {
			g.stSource = append(g.stSource, src)
			g.stTriple = append(g.stTriple, tri)
			stExts.addRow()
		}
		stExts.add(si, ext)
	}
}

// statementTable bulk-loads the statement table over the statement columns.
func statementTable(stSource, stTriple []int32) csr.PairTable {
	t := csr.NewPairTable(len(stSource))
	for si := range stSource {
		t.Intern(stSource[si], stTriple[si], int32(si))
	}
	return t
}

// internItems extends the item ID space over the triples from firstTriple
// on. A triple belongs to exactly one item, so walking the new triples in ID
// (first-occurrence) order interns items in stream first-occurrence order
// too, and hashes each distinct item once per triple instead of once per
// extraction.
func internItems(g *Compiled, idx *extractIndex, firstTriple int) {
	need := len(g.triples) - firstTriple
	if len(g.items) == 0 {
		// Nothing interned yet: size the table for the walk (items run to
		// about half the triples).
		idx.item = csr.NewInternTable(need/2, csr.HashItem)
	}
	g.items = slices.Grow(g.items, need/2)
	g.itemOfTriple = slices.Grow(g.itemOfTriple, need)
	for _, t := range g.triples[firstTriple:] {
		item := t.Item()
		iid, _ := idx.item.Intern(idx.item.Hash(item), &g.items, item)
		g.itemOfTriple = append(g.itemOfTriple, iid)
	}
}

// extLists grows the per-row extractor lists (rows are statements, or
// sources) of one generation. Rows the previous generation already had keep
// their flattened span; what the batch adds to any row — an old one, or one
// the batch introduces — is a chain through one flat entry pool, so a row
// costs one head slot and an addition two words, never a slice of its own.
// Old rows are reached through a sparse map (most are untouched by a batch),
// new rows through a dense head column. A fresh compile has no old rows.
type extLists struct {
	oldStart, oldFlat []int32 // the previous generation's CSR
	// Entry i holds extractor ext[i] and is followed by entry next[i] (-1:
	// the last). head[r] is new row r's first entry and grown[row] an old
	// row's first addition (-1 / absent: none).
	head      []int32
	grown     map[int32]int32
	ext, next []int32
}

// presize reserves room for rows new rows and entries additions.
func (l *extLists) presize(rows, entries int) {
	l.head = make([]int32, 0, rows)
	l.ext = make([]int32, 0, entries)
	l.next = make([]int32, 0, entries)
}

// addRow appends an empty new row.
func (l *extLists) addRow() { l.head = append(l.head, -1) }

// appendChain appends the extractors of the chain starting at entry i, in
// first-addition order, to dst.
func (l *extLists) appendChain(dst []int32, i int32) []int32 {
	for ; i >= 0; i = l.next[i] {
		dst = append(dst, l.ext[i])
	}
	return dst
}

// added appends the extractors the batch added to old row r to dst.
func (l *extLists) added(dst []int32, r int32) []int32 {
	return l.appendChain(dst, l.grown[r])
}

// push adds x to the chain starting at entry first (-1: an empty chain)
// unless the chain holds it, and returns the chain's first entry.
func (l *extLists) push(first, x int32) int32 {
	last := int32(-1)
	for i := first; i >= 0; i = l.next[i] {
		if l.ext[i] == x {
			return first
		}
		last = i
	}
	e := int32(len(l.ext))
	l.ext = append(l.ext, x)
	l.next = append(l.next, -1)
	if last < 0 {
		return e
	}
	l.next[last] = e
	return first
}

// grownRows returns the old rows the batch grew in ascending order — the one
// order everything that consumes grown walks it in.
func (l *extLists) grownRows() []int32 {
	rows := make([]int32, 0, len(l.grown))
	for r := range l.grown {
		rows = append(rows, r)
	}
	slices.Sort(rows)
	return rows
}

// add records that extractor x touched row, unless the row already lists it.
// New rows must have been added (addRow) first.
func (l *extLists) add(row, x int32) {
	nOld := int32(max(len(l.oldStart)-1, 0))
	if row >= nOld {
		l.head[row-nOld] = l.push(l.head[row-nOld], x)
		return
	}
	if containsID(l.oldFlat[l.oldStart[row]:l.oldStart[row+1]], x) {
		return
	}
	first, ok := l.grown[row]
	if !ok {
		first = -1
	}
	if f := l.push(first, x); f != first {
		if l.grown == nil {
			l.grown = map[int32]int32{}
		}
		l.grown[row] = f
	}
}

// flatten concatenates the lists into a CSR (start, flat) pair: old rows keep
// their contents with the additions appended — exactly the first-extraction
// order a compile of the whole stream produces — then the new rows follow.
// The old flat list moves in runs: the rows between two grown ones are
// contiguous and shift by one common offset, so each run is one bulk copy.
// grownRows is l.grownRows().
func (l *extLists) flatten(grownRows []int32) (start, flat []int32) {
	nOld := max(len(l.oldStart)-1, 0)
	start = make([]int32, nOld+len(l.head)+1)
	flat = make([]int32, 0, len(l.oldFlat)+len(l.ext))
	lo := 0 // first old row not emitted yet
	emitRun := func(hi int) {
		shift := int32(len(flat)) - l.oldStart[lo]
		for r := lo; r < hi; r++ {
			start[r] = l.oldStart[r] + shift
		}
		flat = append(flat, l.oldFlat[l.oldStart[lo]:l.oldStart[hi]]...)
		lo = hi
	}
	for _, r := range grownRows {
		emitRun(int(r) + 1)
		flat = l.added(flat, r)
	}
	if lo < nOld {
		emitRun(nOld)
	}
	for r, first := range l.head {
		start[nOld+r] = int32(len(flat))
		flat = l.appendChain(flat, first)
	}
	start[len(start)-1] = int32(len(flat))
	return start, flat
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
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

// Token identifies this generation's graph within the process: two handles
// report the same token exactly when they share one immutable graph (a
// generation and the empty Appends after it). It is a number, not a
// reference — whoever remembers the token of a graph it worked on (the
// two-layer step engines do) does not keep that graph alive.
func (g *Compiled) Token() uint64 { return g.token }

// Parent reports what Append kept of the generation this graph was built
// from: that generation's Token (0 for a decoded graph or a compile from
// nothing), its statement count, and, ascending, those of its statements
// whose extractor list the batch grew. Every other old statement has the
// source, triple and extractor list it had there, and every statement ID from
// the count on is new — which is what lets a consumer that still holds
// per-statement state of exactly that generation revise it instead of
// recomputing it (twolayer.FuseLockstep). The slice is a view; do not modify.
func (g *Compiled) Parent() (token uint64, statements int, grown []int32) {
	return g.parent, g.parentSts, g.grownSts
}

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

// Triples returns the triple column (triple ID -> triple), a read-only view.
func (g *Compiled) Triples() []kb.Triple { return g.triples }

// Support returns triple t's output support counts — the statements
// asserting it, the statements on its data item, and its distinct
// extractors. With NumTriples and Triples it is what a fused result row is
// assembled from (fusion.RowGraph, which the claim graph implements too).
func (g *Compiled) Support(t int) (provenances, itemProvenances, extractors int) {
	return int(g.tripleStStart[t+1] - g.tripleStStart[t]),
		int(g.itemStatements[g.itemOfTriple[t]]),
		int(g.tripleExts[t])
}

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

// StatementHitList returns the ID of the statement's extractor list as
// StatementExtractors returns it: two statements of the graph share an ID
// exactly when their lists are equal, element for element and in order. IDs
// are dense below NumHitLists but only meaningful within one graph — the
// numbering follows the append history, and some IDs may name a list no
// statement holds any more.
func (g *Compiled) StatementHitList(si int32) int32 { return g.stHitList[si] }

// NumHitLists bounds the graph's hit-list IDs (StatementHitList).
func (g *Compiled) NumHitLists() int { return g.nHitLists }

// SourceExtractors returns the distinct extractor IDs that processed the
// source, in first-extraction order.
func (g *Compiled) SourceExtractors(s int32) []int32 {
	return g.srcExts[g.srcExtStart[s]:g.srcExtStart[s+1]]
}

// NumSourceExtractors reports the number of distinct (source, extractor)
// pairs — the total length of the SourceExtractors lists. The lists only grow
// along an append chain, so together with NumSources it tells whether an
// Append changed any of them.
func (g *Compiled) NumSourceExtractors() int { return len(g.srcExts) }

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

// ExtStatementBlocks returns the fixed csr.ReduceBlockSize partition of the
// ext→statement spans: blocks are grouped by extractor in extractor-ID order
// (Block.Group is the extractor ID). The partition depends only on the span
// lengths, so reductions over it are bit-identical for any worker count.
func (g *Compiled) ExtStatementBlocks() []csr.Block { return g.extBlocks }

// ExtBlockStatementsF returns one block's slice of the ext→statement
// incidence: statement IDs (ascending) and aligned hit flags as 0/1 floats —
// the branch-free form the two-layer M-step block reduction consumes
// (multiply by the flag instead of testing it).
func (g *Compiled) ExtBlockStatementsF(b csr.Block) (sts []int32, hitsF []float64) {
	return g.extSts[b.Lo:b.Hi], g.extHitsF[b.Lo:b.Hi]
}

// MaxItemTriples returns the largest candidate-triple count of any item.
func (g *Compiled) MaxItemTriples() int { return g.maxItemTriples }
