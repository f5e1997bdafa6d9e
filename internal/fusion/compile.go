package fusion

import (
	"runtime"
	"slices"
	"sync"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
)

// graph is the compiled, immutable form of a claim set: every provenance,
// extractor, data item and candidate triple interned into a dense int32 ID,
// with CSR adjacency connecting them. It is built once per compilation
// (compile) and then every EM round of every fusion run over it iterates
// flat slices — no maps, no string hashing, no re-shuffling.
//
// ID spaces and invariants (all append-stable: extending the claim stream
// never renumbers an existing ID, which is what makes Append a generation of
// the same graph instead of a recompile):
//
//   - Claim IDs are the indexes of the input []Claim, unchanged. A claim is
//     stored once, as its row of the per-claim columns (provOfClaim,
//     tripleOfClaim, extOfClaim); graph.claim assembles the record from
//     them.
//   - Item IDs are assigned in first-occurrence order of the claim stream.
//   - Triple IDs are assigned in global first-occurrence order of the claim
//     stream. An item's candidates are reached through the itemCands CSR
//     (ascending triple ID = per-item first-occurrence order); localOfTriple
//     is a triple's offset within its item's candidate list, and
//     localOfClaim maps a claim to its candidate's offset, so per-item
//     counting uses a dense scratch array.
//   - Provenance and extractor IDs are assigned in claim-index order of
//     first use.
//   - itemClaims groups claim IDs by item in ascending claim-index order —
//     the same order the per-round shuffle of the seed engine produced, so
//     reservoir sampling sees the identical stream.
//
// The graph holds no configuration-dependent state: provenance accuracies,
// per-claim probabilities and scoring scratch all live in the per-run engine
// (engine.go), which is why one graph can serve any number of configs.
type graph struct {
	// The columns that only grow at the end, cap-clipped to this generation's
	// lengths (see columns).
	columns

	// Items.
	itemClaimStart []int32 // len nItems+1; span into itemClaims
	itemClaims     []int32 // claim IDs grouped by item, claim-index order

	// Candidate triples.
	itemCandStart    []int32 // len nItems+1; span into itemCands
	itemCands        []int32 // candidate triple IDs per item, ascending
	tripleClaimStart []int32 // len nTriples+1; span into tripleClaims
	tripleClaims     []int32 // claim IDs grouped by triple, claim-index order
	tripleExtractors []int32 // triple ID -> distinct extractor count

	// Provenances.
	provClaimStart []int32 // len nProvs+1; span into provClaims
	provClaims     []int32 // claim IDs grouped by prov, claim-index order

	// maxCandidates is the largest candidate count of any single item; it
	// sizes the per-worker scoring scratch.
	maxCandidates int
	// maxItemClaims and maxProvClaims are the longest item and provenance
	// claim spans: an engine binds on them (the POPACCU log-count table, the
	// stage-II block cut, whether Config.SampleL can bind) without a scan.
	// Spans only grow, so an Append raises them from the spans its batch
	// touched (assembleGraph).
	maxItemClaims, maxProvClaims int

	// alwaysStamp is a test hook: every engine bound to the graph stamps the
	// claims it scores (engine.stamped) whatever the config, so the tests
	// can hold the stamp-free passes to the stamped ones bit for bit.
	alwaysStamp bool
}

// columns are the ID-indexed columns an Append never rewrites for an existing
// ID — it only adds entries at the end. A chain of generations therefore
// shares one backing array per column: the interning index, which exactly one
// generation owns at a time, holds each column with its spare capacity and
// extends it in place (amortised append), and every graph holds the
// cap-clipped prefix col[:n:n] of its own generation. A reader of an older
// generation, an accessor's caller or a decoded snapshot can thus never reach
// the tail the chain is still writing, and the chain never writes below the
// length of any generation it has handed out. Everything a batch rewrites for
// old IDs (the CSRs, tripleExtractors) lives in graph and is copied per
// generation.
type columns struct {
	items []kb.DataItem
	// Candidate triples (the deduplicated Stage III output set), in global
	// first-occurrence order.
	triples       []kb.Triple
	itemOfTriple  []int32 // triple ID -> item ID
	localOfTriple []int32 // triple ID -> candidate offset within its item
	tripleOfClaim []int32 // claim ID -> triple ID
	localOfClaim  []int32 // claim ID -> candidate offset within its item

	provKeys    []string // prov ID -> provenance key
	provOfClaim []int32  // claim ID -> prov ID

	// The extractor axis. The engines read it only aggregated
	// (tripleExtractors); an Append recounts the triples a batch touches from
	// it, and snapshots persist it.
	extKeys    []string // extractor ID -> extractor name
	extOfClaim []int32  // claim ID -> extractor ID
}

// clipped returns the columns with every capacity cut to its length, so an
// append through the result reallocates instead of writing a shared tail.
func (c columns) clipped() columns {
	return columns{
		items:         slices.Clip(c.items),
		triples:       slices.Clip(c.triples),
		itemOfTriple:  slices.Clip(c.itemOfTriple),
		localOfTriple: slices.Clip(c.localOfTriple),
		tripleOfClaim: slices.Clip(c.tripleOfClaim),
		localOfClaim:  slices.Clip(c.localOfClaim),
		provKeys:      slices.Clip(c.provKeys),
		provOfClaim:   slices.Clip(c.provOfClaim),
		extKeys:       slices.Clip(c.extKeys),
		extOfClaim:    slices.Clip(c.extOfClaim),
	}
}

// numClaims reports the number of claims, the length of every per-claim
// column.
func (c *columns) numClaims() int { return len(c.provOfClaim) }

// claim assembles claim i from its columns.
func (g *graph) claim(i int) Claim {
	return Claim{
		Triple:    g.triples[g.tripleOfClaim[i]],
		Prov:      g.provKeys[g.provOfClaim[i]],
		Extractor: g.extKeys[g.extOfClaim[i]],
	}
}

// claimIndex is the mutable interning state a compilation leaves behind so
// Append can extend the ID spaces without re-hashing the prefix. It is
// byproduct state, not part of the immutable graph: exactly one generation
// owns it at a time (see Compiled.AppendWorkers).
type claimIndex struct {
	// cols are that generation's append-only columns with their spare
	// capacity: the one handle through which the shared tails are written.
	cols columns
	// Every ID space interns through an open-addressing table
	// (csr.InternTable) over its dense key column — provKeys, extKeys,
	// triples, items: per-claim interning is the compile hot loop, and
	// probing a flat (hash, ID) array beats the generic map's bucket walk.
	prov csr.InternTable[string]
	ext  csr.InternTable[string]
	tri  csr.InternTable[kb.Triple]
	item csr.InternTable[kb.DataItem]
	// pairs is the set of every claim's (provenance ID, triple ID): what an
	// extraction append dedups its records against (internExtractions).
	// feedGran is the granularity the feed's provenance keys are built
	// under. Both are set on the index's first extraction append (feedPairs),
	// and pairs is nil until then and again after a claim append.
	pairs    *csr.PairTable
	feedGran Granularity
}

// Compiled is a compiled claim set: a reusable, immutable handle over the
// interned claim graph. Compilation is the expensive part of a fusion run —
// all interning plus the CSR builds — and it depends solely on the claims,
// never on a Config, so one Compiled can serve any number of fusion
// configurations:
//
//	c, _ := fusion.Compile(claims)
//	vote, _ := c.Fuse(fusion.VoteConfig())
//	accu, _ := c.Fuse(fusion.AccuConfig())
//	pop, _ := c.Fuse(fusion.PopAccuConfig())
//
// Each Fuse call builds its own engine state (provenance accuracies,
// per-claim probabilities, scratch buffers), so results are bit-identical to
// a fresh fusion.Fuse of the same claims and concurrent Fuse calls on one
// Compiled are safe. The graph keeps the claims as columns, not the caller's
// slice.
//
// A Compiled is also one generation of an append-only feed, and there is one
// compile path (extend): Append interns a claim batch onto the generation —
// only the new provenances, extractors, items and triples — assembles the
// next one and returns it, and Compile is the first Append, the empty
// generation extended by the whole claim set. So Append equals recompiling
// the concatenated claim stream bit for bit by construction (every ID space
// is assigned in first-occurrence order, so existing IDs never move), and the
// previous generation stays fully usable. Generations of one chain share the
// columns that only grow at the end (see columns); the rest is copied per
// generation. An extraction feed grows a chain the same way through
// CompileExtractions and AppendExtractions, which flatten records into claims
// in the interning loop itself (extendFeed). A claim batch interns in one
// range per worker when it is large and workers are many (internClaims,
// shardIntern), and builds the same graph.
//
// A Compiled is bound to its claims' provenance granularity:
// Config.Granularity acts when extractions are flattened into claims
// (CompileExtractions, Claims), never afterwards, so fusing configs that
// differ only in Granularity over one Compiled returns identical results. A
// granularity sweep needs one compile per granularity — exper.Dataset does
// exactly that, caching one compiled graph per granularity.
type Compiled struct {
	g   *graph
	gen int

	// idx is the interning byproduct Append consumes, and the owner of the
	// chain's shared column tails. The first Append on this generation takes
	// it (and hands it to the generation it returns); a later Append on the
	// same generation rebuilds it from the graph — correct, just slower.
	// Guarded by mu; the graph itself is immutable.
	mu  sync.Mutex
	idx *claimIndex
}

// Compile interns a claim set into a reusable Compiled graph using all
// available cores. It is deterministic for a fixed input order: the same
// claims always produce the same graph (and therefore the same Fuse
// results), regardless of available parallelism. Compilation currently
// cannot fail — the error is reserved for future claim validation, keeping
// the signature stable for callers that already plumb it.
func Compile(claims []Claim) (*Compiled, error) {
	return CompileWorkers(claims, 0, 0)
}

// CompileWorkers is Compile with explicit resource bounds: workers caps the
// interning and counting goroutines (0 = GOMAXPROCS). The counting passes
// split from two workers on; interning splits into ranges from
// shardInternMinWorkers on (see extend). The graph — and every result fused
// from it — is identical for any workers value. partitions is retained for
// signature compatibility with the former shuffle-based compiler and is
// ignored: the first-occurrence ID assignment has no partition axis.
func CompileWorkers(claims []Claim, workers, partitions int) (*Compiled, error) {
	// The first Append: the empty generation extended by the whole claim set.
	c := &Compiled{idx: &claimIndex{}}
	c.g = extend(&graph{}, c.idx, claims, workers)
	return c, nil
}

// MustCompile is Compile for callers without error plumbing.
func MustCompile(claims []Claim) *Compiled {
	c, err := Compile(claims)
	if err != nil {
		panic(err)
	}
	return c
}

// ---- Read-only graph accessors ----
//
// These expose the interned ID spaces to other fusion models (e.g.
// internal/multitruth) so they can ride one compilation instead of building
// their own string-keyed indexes. All returned slices are views into the
// compiled graph and must not be modified.

// NumClaims reports the number of input claims.
func (c *Compiled) NumClaims() int { return c.g.numClaims() }

// NumItems reports the number of distinct data items.
func (c *Compiled) NumItems() int { return len(c.g.items) }

// NumTriples reports the number of distinct candidate triples.
func (c *Compiled) NumTriples() int { return len(c.g.triples) }

// NumProvenances reports the number of distinct provenance keys.
func (c *Compiled) NumProvenances() int { return len(c.g.provKeys) }

// Generation reports how many Appends produced this handle (0 for a fresh
// Compile).
func (c *Compiled) Generation() int { return c.gen }

// Triple returns the triple with the given triple ID.
func (c *Compiled) Triple(t int) kb.Triple { return c.g.triples[t] }

// Triples returns the compiled triple column (triple ID -> triple).
func (c *Compiled) Triples() []kb.Triple { return c.g.triples }

// ProvKey returns the provenance key with the given provenance ID.
func (c *Compiled) ProvKey(p int) string { return c.g.provKeys[p] }

// ProvKeys returns the provenance key column (provenance ID -> key).
func (c *Compiled) ProvKeys() []string { return c.g.provKeys }

// Support returns triple t's output support counts — the provenances
// asserting it, the claims on its data item, and its distinct extractors:
// with Triples, everything a fused row holds besides its probability (see
// RowGraph).
func (c *Compiled) Support(t int) (provenances, itemProvenances, extractors int) {
	g := c.g
	item := g.itemOfTriple[t]
	return int(g.tripleClaimStart[t+1] - g.tripleClaimStart[t]),
		int(g.itemClaimStart[item+1] - g.itemClaimStart[item]),
		int(g.tripleExtractors[t])
}

// ItemTriples returns the candidate triple IDs of item i in ascending
// (first-occurrence) order.
func (c *Compiled) ItemTriples(i int) []int32 {
	return c.g.itemCands[c.g.itemCandStart[i]:c.g.itemCandStart[i+1]]
}

// ItemClaims returns the claim IDs of item i in claim-index order.
func (c *Compiled) ItemClaims(i int) []int32 {
	return c.g.itemClaims[c.g.itemClaimStart[i]:c.g.itemClaimStart[i+1]]
}

// TripleClaims returns the claim IDs asserting triple t in claim-index order.
func (c *Compiled) TripleClaims(t int) []int32 {
	return c.g.tripleClaims[c.g.tripleClaimStart[t]:c.g.tripleClaimStart[t+1]]
}

// ClaimProv returns the provenance ID of a claim.
func (c *Compiled) ClaimProv(claim int32) int32 { return c.g.provOfClaim[claim] }

// extend is the compile path of a claim batch: it interns batch onto the
// generation (old, idx) and assembles the next graph. The append-only columns
// are extended in place through idx.cols — old holds their clipped prefixes,
// which are never written — and old's other arrays are only read. Every ID
// space is assigned in first-occurrence order of the claim stream, so old's
// IDs never move and the result equals extending the empty generation by the
// concatenated stream — which is what a fresh compile is.
//
// The batch interns through internClaims in workers ranges when
// shardIntern(len(batch), workers) holds and in one range otherwise. The
// result is independent of that choice and of workers.
func extend(old *graph, idx *claimIndex, batch []Claim, workers int) *graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nOld := old.numClaims()
	g := successor(old, idx)
	if nOld == 0 {
		idx.presize(g, len(batch))
	}
	g.provOfClaim = append(g.provOfClaim, make([]int32, len(batch))...)
	g.tripleOfClaim = append(g.tripleOfClaim, make([]int32, len(batch))...)
	g.extOfClaim = append(g.extOfClaim, make([]int32, len(batch))...)

	shards := 1
	if shardIntern(len(batch), workers) {
		shards = workers
	}
	internClaims(g, idx, batch, nOld, shards)
	idx.pairs = nil // the next extraction append rebuilds it over the batch too
	return extendTail(old, g, idx, workers)
}

// shardInternMinWorkers is the smallest worker count at which a claim batch
// interns in more than one range. Measured on 2 shared vCPUs (`go test -bench
// 'CompileClaimGraph' -benchtime 20x -benchmem`, 150k ScaleLarge claims, ten
// runs): one range compiles in 113–152 ms and 34.5 MB, four ranges in
// 109–145 ms and 50.8 MB — the ranges' own loops, then a fold that hashes the
// distinct keys of ranges 1…3 once more into the graph's tables, the three
// key spaces on three goroutines. When range 0 still folded like the others,
// two ranges tied one (124–134 ms against 127–132 ms) with 18 MB more
// allocated, so two workers stay with one range; a probe with range 0 on the
// graph's tables read 103–110 ms and 44.4 MB for two ranges against 114–137
// ms for one, which makes two a candidate (ROADMAP item 22). At four cores
// CI's scaling-check holds the claim-graph compile at >= 1.5x the one-core
// cell. Three has been measured on no host and stays with one range.
const shardInternMinWorkers = 4

// shardIntern is the one rule for how many ranges a claim batch interns in:
// a batch of n claims with `workers` goroutines allowed is split into workers
// ranges when n reaches csr.ParallelThreshold and workers reaches
// shardInternMinWorkers, and is one range otherwise. Every split builds the
// same graph, so the rule decides speed only.
func shardIntern(n, workers int) bool {
	return n >= csr.ParallelThreshold && workers >= shardInternMinWorkers
}

// successor returns the shell of the generation after old: the append-only
// columns with the spare capacity idx holds, every derived array still old's.
func successor(old *graph, idx *claimIndex) *graph {
	return &graph{
		columns: idx.cols,

		itemCandStart:    old.itemCandStart,
		itemCands:        old.itemCands,
		itemClaimStart:   old.itemClaimStart,
		itemClaims:       old.itemClaims,
		provClaimStart:   old.provClaimStart,
		provClaims:       old.provClaims,
		tripleClaimStart: old.tripleClaimStart,
		tripleClaims:     old.tripleClaims,
		tripleExtractors: old.tripleExtractors,
		maxCandidates:    old.maxCandidates,
		maxItemClaims:    old.maxItemClaims,
		maxProvClaims:    old.maxProvClaims,
	}
}

// extendTail is the tail both interning loops share: g holds old's claim
// columns and the batch's, interned, and extendTail derives the rest of the
// generation. A triple belongs to exactly one item, so walking the new
// triples in ID (first-occurrence) order interns items in stream
// first-occurrence order too, and hashes each distinct item once per
// candidate instead of once per claim. The index keeps the columns' spare capacity; the generation sees
// its own prefix.
func extendTail(old, g *graph, idx *claimIndex, workers int) *graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g.localOfClaim = append(g.localOfClaim, make([]int32, g.numClaims()-old.numClaims())...)
	internItems(g, idx, len(old.triples))
	assembleGraph(g, old.numClaims(), len(old.triples), workers)
	idx.cols, g.columns = g.columns, g.columns.clipped()
	return g
}

// presize replaces the tables the interning loops fill with ones sized for a
// from-empty stream of n claims, and g's key columns with ones of the same
// priors. Distinct provenances and triples run up to about half the claim
// count in an extraction corpus; undershooting just costs cheap grow()
// re-slots, overshooting costs zeroed pages every compile, and append-doubling
// on 64-byte triples would allocate ~2x the final footprint per compile and
// copy it log-many times.
func (idx *claimIndex) presize(g *graph, n int) {
	idx.prov = csr.NewInternTable[string](n/2, nil)
	idx.ext = csr.NewInternTable[string](32, nil)
	g.extKeys = make([]string, 0, 32)
	idx.tri = csr.NewInternTable(n/2, csr.HashTriple)
	g.triples = make([]kb.Triple, 0, n/2+16)
	g.provKeys = make([]string, 0, n/2+16)
}

// internClaims interns a claim batch: it writes batch's provenance,
// extractor and triple IDs into g's per-claim columns from claim first on,
// continuing whatever idx and g's key columns already hold.
//
// The batch is split into shards contiguous ranges, each interned by the
// sequential loop (internRange). Range 0 runs on idx's own tables, so its IDs
// are final; ranges 1…shards-1 run concurrently on range-local tables,
// writing range-local IDs into their windows of the per-claim columns. Then
// those ranges' key columns fold into idx's tables in stream order — range
// 1's keys, then range 2's, and so on — which puts every key at its first
// occurrence, the IDs one range assigns, and a parallel remap rewrites the
// range-local IDs in place. One range is the loop alone.
func internClaims(g *graph, idx *claimIndex, batch []Claim, first, shards int) {
	n := len(batch)
	shards = max(1, min(shards, n))
	locals := make([]*graph, shards)
	csr.ParallelRange(n, shards, func(w, lo, hi int) {
		if w == 0 {
			internRange(g, idx, batch[:hi], first)
			return
		}
		lg := &graph{columns: columns{
			provOfClaim:   g.provOfClaim[first+lo : first+hi],
			tripleOfClaim: g.tripleOfClaim[first+lo : first+hi],
			extOfClaim:    g.extOfClaim[first+lo : first+hi],
		}}
		lidx := &claimIndex{}
		lidx.presize(lg, hi-lo)
		internRange(lg, lidx, batch[lo:hi], 0)
		locals[w] = lg
	})
	if shards == 1 {
		return
	}

	// remap[w][local] is the global ID of range w's local ID. The three key
	// spaces fold concurrently: each touches only its own table and column.
	var provRemap, extRemap, triRemap [][]int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		provRemap = fold(&idx.prov, &g.provKeys, locals, func(lg *graph) []string { return lg.provKeys })
	}()
	go func() {
		defer wg.Done()
		extRemap = fold(&idx.ext, &g.extKeys, locals, func(lg *graph) []string { return lg.extKeys })
	}()
	triRemap = fold(&idx.tri, &g.triples, locals, func(lg *graph) []kb.Triple { return lg.triples })
	wg.Wait()

	// Same (n, shards) split as the intern pass, so range w rewrites exactly
	// the IDs its loop assigned.
	csr.ParallelRange(n, shards, func(w, lo, hi int) {
		if w == 0 {
			return
		}
		for i := first + lo; i < first+hi; i++ {
			g.provOfClaim[i] = provRemap[w][g.provOfClaim[i]]
			g.extOfClaim[i] = extRemap[w][g.extOfClaim[i]]
			g.tripleOfClaim[i] = triRemap[w][g.tripleOfClaim[i]]
		}
	})
}

// fold interns the key column keysOf(locals[w]) of every range w >= 1, in
// range order, into the ID space (t, *keys) and returns each range's local
// -> global ID map.
func fold[K comparable](t *csr.InternTable[K], keys *[]K, locals []*graph, keysOf func(*graph) []K) [][]int32 {
	remap := make([][]int32, len(locals))
	for w := 1; w < len(locals); w++ {
		col := keysOf(locals[w])
		remap[w] = make([]int32, len(col))
		for li, key := range col {
			remap[w][li], _ = t.Intern(t.Hash(key), keys, key)
		}
	}
	return remap
}

// internRange is the sequential interning loop of a claim range: it writes
// the range's IDs into g's per-claim columns from claim first on, continuing
// whatever idx and g's key columns already hold.
//
// Claim streams arrive grouped by extractor (and largely by provenance within
// a group), so a last-seen cache answers most lookups without touching the
// hash tables. Triples do not repeat consecutively — corroborating claims are
// whole groups apart — and hash through csr.HashTriple directly rather than
// through the table's function field.
func internRange(g *graph, idx *claimIndex, batch []Claim, first int) {
	var pid, xid int32
	for i := range batch {
		c := &batch[i]
		if i == 0 || c.Prov != batch[i-1].Prov {
			pid, _ = idx.prov.Intern(idx.prov.Hash(c.Prov), &g.provKeys, c.Prov)
		}
		g.provOfClaim[first+i] = pid
		if i == 0 || c.Extractor != batch[i-1].Extractor {
			xid, _ = idx.ext.Intern(idx.ext.Hash(c.Extractor), &g.extKeys, c.Extractor)
		}
		g.extOfClaim[first+i] = xid
		g.tripleOfClaim[first+i], _ = idx.tri.Intern(csr.HashTriple(c.Triple), &g.triples, c.Triple)
	}
}

// internItems extends the item ID space and per-item candidate offsets over
// the triples from firstTriple on, walking them in ID order (the stream's
// first-occurrence order). A triple's offset is its item's candidate count so
// far: for an item of the previous generation that is its existing span plus
// what this walk added (kept sparsely — a batch touches few old items), for
// an item the walk introduces a dense running count.
func internItems(g *graph, idx *claimIndex, firstTriple int) {
	need := len(g.triples) - firstTriple
	nOldItems := len(g.items)
	if nOldItems == 0 {
		// Nothing interned yet: size the table for the walk (items run to
		// about half the triples).
		idx.item = csr.NewInternTable(need/2, csr.HashItem)
	}
	var grown map[int32]int32       // old item -> candidates the walk added
	fresh := make([]int32, 0, need) // candidate count per new item
	// One allocation per slice at most instead of append-doubling over the
	// triple walk (worst case every triple starts a new item).
	g.items = slices.Grow(g.items, need)
	g.itemOfTriple = slices.Grow(g.itemOfTriple, need)
	g.localOfTriple = slices.Grow(g.localOfTriple, need)
	for t := firstTriple; t < len(g.triples); t++ {
		item := g.triples[t].Item()
		iid, added := idx.item.Intern(idx.item.Hash(item), &g.items, item)
		if added {
			fresh = append(fresh, 0)
		}
		var local int32
		if int(iid) >= nOldItems {
			local = fresh[int(iid)-nOldItems]
			fresh[int(iid)-nOldItems]++
		} else {
			if grown == nil {
				grown = map[int32]int32{}
			}
			local = g.itemCandStart[iid+1] - g.itemCandStart[iid] + grown[iid]
			grown[iid]++
		}
		g.itemOfTriple = append(g.itemOfTriple, iid)
		g.localOfTriple = append(g.localOfTriple, local)
		// Offsets count up from 0, so the largest one sizes the longest list.
		g.maxCandidates = max(g.maxCandidates, int(local)+1)
	}
}

// assembleGraph is the one assemble tail: it builds every derived CSR and
// count of g from the interned ID assignments. g arrives holding the previous
// generation's derived arrays (all empty for a fresh compile); the claims
// from firstClaim and the triples from firstTriple on are new, and each span
// merge is the old span followed by the new IDs, so the work beyond copying
// the old arrays is proportional to the batch. Exact for any workers value.
func assembleGraph(g *graph, firstClaim, firstTriple, workers int) {
	n := g.numClaims()
	nItems := len(g.items)
	nTriples := len(g.triples)

	// Claim -> item and claim -> local candidate offset, elementwise.
	itemOfClaim := make([]int32, n-firstClaim)
	ew := workers
	if n-firstClaim < csr.ParallelThreshold {
		ew = 1
	}
	csr.ParallelRange(n-firstClaim, ew, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t := g.tripleOfClaim[firstClaim+i]
			g.localOfClaim[firstClaim+i] = g.localOfTriple[t]
			itemOfClaim[i] = g.itemOfTriple[t]
		}
	})

	g.itemCandStart, g.itemCands = csr.AppendByGroup(
		g.itemCandStart, g.itemCands, g.itemOfTriple[firstTriple:], nItems, workers)
	g.itemClaimStart, g.itemClaims = csr.AppendByGroup(
		g.itemClaimStart, g.itemClaims, itemOfClaim, nItems, workers)
	g.provClaimStart, g.provClaims = csr.AppendByGroup(
		g.provClaimStart, g.provClaims, g.provOfClaim[firstClaim:], len(g.provKeys), workers)
	g.tripleClaimStart, g.tripleClaims = csr.AppendByGroup(
		g.tripleClaimStart, g.tripleClaims, g.tripleOfClaim[firstClaim:], nTriples, workers)
	g.maxItemClaims = max(g.maxItemClaims, maxSpan(g.itemClaimStart, itemOfClaim))
	g.maxProvClaims = max(g.maxProvClaims, maxSpan(g.provClaimStart, g.provOfClaim[firstClaim:]))

	recountTripleExtractors(g, firstClaim, firstTriple, workers)
}

// maxSpan returns the longest span of start among the groups ids names (0
// for none): the spans a batch grew, which are the only ones that changed.
func maxSpan(start, ids []int32) int {
	m := int32(0)
	for _, id := range ids {
		m = max(m, start[id+1]-start[id])
	}
	return int(m)
}

// recountTripleExtractors brings the per-triple distinct-extractor counts up
// to date: only triples asserted by the claims from firstClaim on can have
// changed. The new triples are a range, recounted in parallel; the old
// triples the batch asserted again are found by a walk over the batch.
// Counts are exact, so the result is independent of the split.
func recountTripleExtractors(g *graph, firstClaim, firstTriple, workers int) {
	nTriples := len(g.triples)
	g.tripleExtractors = csr.ExtendInt32(g.tripleExtractors, nTriples)
	if nTriples-firstTriple < csr.ParallelThreshold {
		workers = 1 // goroutine setup would dominate
	}
	csr.ParallelRange(nTriples-firstTriple, workers, func(_, lo, hi int) {
		seen := unseen(len(g.extKeys))
		for t := firstTriple + lo; t < firstTriple+hi; t++ {
			recountTriple(g, int32(t), seen)
		}
	})
	if firstTriple == 0 {
		return
	}
	seen := unseen(len(g.extKeys))
	done := make(map[int32]bool, g.numClaims()-firstClaim)
	for _, t := range g.tripleOfClaim[firstClaim:] {
		if int(t) < firstTriple && !done[t] {
			done[t] = true
			recountTriple(g, t, seen)
		}
	}
}

// recountTriple recomputes one triple's distinct-extractor count. seen is a
// caller-owned scratch (see unseen) stamped with the triple ID, so it is
// never cleared between triples.
func recountTriple(g *graph, t int32, seen []int32) {
	cnt := int32(0)
	for _, c := range g.tripleClaims[g.tripleClaimStart[t]:g.tripleClaimStart[t+1]] {
		if x := g.extOfClaim[c]; seen[x] != t {
			seen[x] = t
			cnt++
		}
	}
	g.tripleExtractors[t] = cnt
}

// unseen returns a stamp scratch over n extractors matching no triple ID.
func unseen(n int) []int32 {
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	return seen
}

// ---- Append: the next generation of the graph ----

// Append extends the compiled graph with a claim batch and returns the next
// generation, using all available cores. The result is bit-identical to
// Compile over the concatenated claim stream, because it is the same code: a
// fresh Compile is this path run from the empty generation. Every ID space is
// assigned in first-occurrence order, so the IDs of existing provenances,
// items, triples and claims are unchanged and only the batch is interned,
// against the index the previous generation left behind. The append-only
// columns (keys, per-claim and per-triple IDs) are extended in place through
// that index — the receiver holds their clipped prefixes — and only the
// arrays a batch rewrites for old IDs, the CSRs and support counts, are
// rebuilt around the old ones (bulk copies, no re-hashing of the prefix).
// A batch of at least csr.ParallelThreshold claims interns in one range per
// worker from shardInternMinWorkers workers on, and in one range otherwise
// (shardIntern), whatever the receiver holds.
//
// The receiver stays fully usable, also concurrently with this and later
// Appends (no word it can address is ever written); the mutable interning
// index moves to the returned generation, so appending repeatedly should
// chain (g0 -> g1 -> g2 ...). A second Append on the same generation is
// correct but rebuilds the index and copies the shared columns once, after
// which that fork owns its own tail. An Append that adds nothing costs
// O(1): it returns the next generation over the receiver's arrays. The graph
// keeps the batch as columns, not the caller's slice.
func (c *Compiled) Append(claims []Claim) (*Compiled, error) {
	return c.AppendWorkers(claims, 0)
}

// AppendWorkers is Append with an explicit worker bound (0 = GOMAXPROCS).
// The graph is identical for any workers value.
func (c *Compiled) AppendWorkers(newClaims []Claim, workers int) (*Compiled, error) {
	c.mu.Lock()
	idx := c.idx
	c.idx = nil
	c.mu.Unlock()
	if len(newClaims) == 0 {
		// The graph is immutable, so the next generation shares it; the
		// index, if this generation still held it, moves on as always.
		return &Compiled{g: c.g, gen: c.gen + 1, idx: idx}, nil
	}
	if idx == nil {
		idx = rebuildIndex(c.g)
	}
	return &Compiled{g: extend(c.g, idx, newClaims, workers), gen: c.gen + 1, idx: idx}, nil
}

// MustAppend is Append for callers without error plumbing.
func (c *Compiled) MustAppend(claims []Claim) *Compiled {
	next, err := c.Append(claims)
	if err != nil {
		panic(err)
	}
	return next
}

// rebuildIndex reconstructs the interning index from the immutable graph, for
// a generation whose index another Append already took (or that was decoded
// from a snapshot). It bulk-loads each table from the graph's key column; it
// exists for correctness — chained appends never hit it.
func rebuildIndex(g *graph) *claimIndex {
	return &claimIndex{
		// Clipped, so this index's first append copies each column once and
		// then owns its own tail: a fork never writes another chain's.
		cols: g.columns.clipped(),
		prov: csr.BuildInternTable(g.provKeys, nil),
		ext:  csr.BuildInternTable(g.extKeys, nil),
		tri:  csr.BuildInternTable(g.triples, csr.HashTriple),
		item: csr.BuildInternTable(g.items, csr.HashItem),
	}
}
