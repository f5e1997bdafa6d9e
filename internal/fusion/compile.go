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
//   - Claim IDs are the indexes of the input []Claim, unchanged.
//   - Item IDs are assigned in first-occurrence order of the claim stream.
//   - Triple IDs are assigned in global first-occurrence order of the claim
//     stream. An item's candidates are reached through the itemCands CSR
//     (ascending triple ID = per-item first-occurrence order); localOfTriple
//     is a triple's offset within its item's candidate list, and
//     localOfClaim maps a claim to its candidate's offset, so per-item
//     counting uses a dense scratch array.
//   - Provenance IDs are assigned in claim-index order of first use.
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
	claims []Claim

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
}

// clipped returns the columns with every capacity cut to its length, so an
// append through the result reallocates instead of writing a shared tail.
func (c columns) clipped() columns {
	return columns{
		claims:        slices.Clip(c.claims),
		items:         slices.Clip(c.items),
		triples:       slices.Clip(c.triples),
		itemOfTriple:  slices.Clip(c.itemOfTriple),
		localOfTriple: slices.Clip(c.localOfTriple),
		tripleOfClaim: slices.Clip(c.tripleOfClaim),
		localOfClaim:  slices.Clip(c.localOfClaim),
		provKeys:      slices.Clip(c.provKeys),
		provOfClaim:   slices.Clip(c.provOfClaim),
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
	// (csr.InternTable) over its dense key slice — g.provKeys, extKeys,
	// g.triples, g.items: per-claim interning is the compile hot loop, and
	// probing a flat (hash, ID) array beats the generic map's bucket walk.
	prov csr.InternTable[string]
	ext  csr.InternTable[string]
	tri  csr.InternTable[kb.Triple]
	item csr.InternTable[kb.DataItem]
	// extKeys and extOfClaim cover the extractor axis, which the graph
	// itself only keeps aggregated (tripleExtractors); Append needs the
	// per-claim assignment to recount the triples a batch touches.
	// extOfClaim grows in place like cols (only the index ever holds it).
	extKeys    []string
	extOfClaim []int32
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
// Compiled are safe. The caller must not mutate the claim slice after
// Compile.
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
// in the interning loop itself (extendFeed). The one other interning path,
// the shard-and-merge pass, is chosen from what extend observes — see Append.
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
// split from two workers on; interning is sharded from
// csr.ShardInternMinWorkers on and is the sequential loop below it (see
// extend). The graph — and every result fused from it — is identical for any
// workers value. partitions is
// retained for signature compatibility with the former shuffle-based
// compiler and is ignored: the first-occurrence ID assignment has no
// partition axis.
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
func (c *Compiled) NumClaims() int { return len(c.g.claims) }

// NumItems reports the number of distinct data items.
func (c *Compiled) NumItems() int { return len(c.g.items) }

// NumTriples reports the number of distinct candidate triples.
func (c *Compiled) NumTriples() int { return len(c.g.triples) }

// NumProvenances reports the number of distinct provenance keys.
func (c *Compiled) NumProvenances() int { return len(c.g.provKeys) }

// Generation reports how many Appends produced this handle (0 for a fresh
// Compile).
func (c *Compiled) Generation() int { return c.gen }

// Claims returns the compiled claim slice (claim ID -> Claim).
func (c *Compiled) Claims() []Claim { return c.g.claims }

// Triple returns the triple with the given triple ID.
func (c *Compiled) Triple(t int) kb.Triple { return c.g.triples[t] }

// Triples returns the compiled triple column (triple ID -> triple).
func (c *Compiled) Triples() []kb.Triple { return c.g.triples }

// Item returns the data item with the given item ID.
func (c *Compiled) Item(i int) kb.DataItem { return c.g.items[i] }

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

// internShardThreshold is the element count below which the assemble tail's
// elementwise and per-triple passes stay on one goroutine (the shared cutoff
// of the multi-pass parallel schemes; tuned in internal/csr).
const internShardThreshold = csr.ParallelThreshold

// extend is the compile path of a claim batch: it interns batch onto the
// generation (old, idx) and assembles the next graph. The append-only columns
// are extended in place through idx.cols — old holds their clipped prefixes,
// which are never written — and old's other arrays are only read. Every ID
// space is assigned in first-occurrence order of the claim stream, so old's
// IDs never move and the result equals extending the empty generation by the
// concatenated stream — which is what a fresh compile is.
//
// The batch interns through internClaims, the sequential loop, except
// when nothing is interned yet and csr.ShardIntern(len(batch), workers) holds
// — at least csr.ParallelThreshold claims and csr.ShardInternMinWorkers
// workers: then internClaimsParallel runs the same loop per shard and merges.
// The minimum is measured, not assumed: at two workers the merge costs more
// than the half loop it saves (the numbers are beside the constant). The
// result is independent of that choice and of workers.
func extend(old *graph, idx *claimIndex, batch []Claim, workers int) *graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nOld := len(old.claims)
	n := nOld + len(batch)
	g := successor(old, idx)
	if nOld > 0 {
		g.claims = append(g.claims, batch...)
	} else {
		g.claims = slices.Clip(batch) // aliased, so never appended into
	}
	g.provOfClaim = append(g.provOfClaim, make([]int32, len(batch))...)
	g.tripleOfClaim = append(g.tripleOfClaim, make([]int32, len(batch))...)
	idx.extOfClaim = append(idx.extOfClaim, make([]int32, len(batch))...)

	switch {
	case nOld > 0:
		internClaims(g, idx, nOld)
	case csr.ShardIntern(n, workers):
		internClaimsParallel(g, idx, workers)
	default:
		idx.presize(g, n)
		internClaims(g, idx, 0)
	}
	idx.pairs = nil // the next extraction append rebuilds it over the batch too
	return extendTail(old, g, idx, workers)
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
	}
}

// extendTail is the tail both interning loops share: g holds old's claims and
// the batch's, interned, and extendTail derives the rest of the generation. A
// triple belongs to exactly one item, so walking the new triples in ID
// (first-occurrence) order interns items in stream first-occurrence order
// too, and hashes each distinct item once per candidate instead of once per
// claim. The index keeps the columns' spare capacity; the generation sees
// its own prefix.
func extendTail(old, g *graph, idx *claimIndex, workers int) *graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g.localOfClaim = append(g.localOfClaim, make([]int32, len(g.claims)-len(old.claims))...)
	internItems(g, idx, len(old.triples))
	assembleGraph(g, idx, len(old.claims), len(old.triples), workers)
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
	idx.extKeys = make([]string, 0, 32)
	idx.tri = csr.NewInternTable(n/2, csr.HashTriple)
	g.triples = make([]kb.Triple, 0, n/2+16)
	g.provKeys = make([]string, 0, n/2+16)
}

// intern returns key's ID in the ID space (t, *keys), assigning the next one
// to a key not seen yet.
func intern[K comparable](t *csr.InternTable[K], keys *[]K, key K) int32 {
	h := t.Hash(key)
	id := t.ID(h, key, *keys)
	if id < 0 {
		id = int32(len(*keys))
		*keys = append(*keys, key)
		t.Insert(h, id)
	}
	return id
}

// internClaims is the sequential interning loop of a claim batch: it assigns
// provenance, extractor and triple IDs to g.claims[first:], continuing
// whatever idx and g's key slices already hold.
//
// Claim streams arrive grouped by extractor (and largely by provenance within
// a group), so a last-seen cache answers most lookups without touching the
// hash tables. Triples do not repeat consecutively — corroborating claims are
// whole groups apart.
func internClaims(g *graph, idx *claimIndex, first int) {
	var pid, xid int32
	for i := first; i < len(g.claims); i++ {
		c := &g.claims[i]
		if i == first || c.Prov != g.claims[i-1].Prov {
			pid = intern(&idx.prov, &g.provKeys, c.Prov)
		}
		g.provOfClaim[i] = pid
		if i == first || c.Extractor != g.claims[i-1].Extractor {
			xid = intern(&idx.ext, &idx.extKeys, c.Extractor)
		}
		idx.extOfClaim[i] = xid
		g.tripleOfClaim[i] = idx.tripleID(g, &c.Triple)
	}
}

// tripleID is intern over the triple ID space, the one both loops take per
// record, with the table's hash called directly rather than through its
// function field.
func (idx *claimIndex) tripleID(g *graph, t *kb.Triple) int32 {
	h := csr.HashTriple(*t)
	id := idx.tri.ID(h, *t, g.triples)
	if id < 0 {
		id = int32(len(g.triples))
		g.triples = append(g.triples, *t)
		idx.tri.Insert(h, id)
	}
	return id
}

// internClaimsParallel is the shard-and-merge interning pass over a
// from-empty g: each worker runs internClaims over a contiguous claim range
// with shard-local tables, writing shard-local IDs into its window of the
// per-claim columns; the shard-local key lists merge into the global
// first-occurrence order with csr.MergeKeys' ordered pairwise merge
// (bit-identical to a sequential fold), and a parallel remap rewrites the
// shard-local IDs in place.
func internClaimsParallel(g *graph, idx *claimIndex, workers int) {
	n := len(g.claims)
	if workers > n {
		workers = n
	}
	provShards := make([][]string, workers)
	extShards := make([][]string, workers)
	triShards := make([][]kb.Triple, workers)
	csr.ParallelRange(n, workers, func(w, lo, hi int) {
		sg := &graph{columns: columns{
			claims:        g.claims[lo:hi],
			provOfClaim:   g.provOfClaim[lo:hi],
			tripleOfClaim: g.tripleOfClaim[lo:hi],
		}}
		sidx := &claimIndex{extOfClaim: idx.extOfClaim[lo:hi]}
		sidx.presize(sg, hi-lo)
		internClaims(sg, sidx, 0)
		provShards[w], extShards[w], triShards[w] = sg.provKeys, sidx.extKeys, sg.triples
	})

	var provMap, extMap map[string]int32
	var triMap map[kb.Triple]int32
	// The three key spaces merge concurrently; each merge is itself a
	// parallel pairwise tree, and each reproduces the sequential fold's
	// global first-occurrence order exactly.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.provKeys, provMap = csr.MergeKeys(provShards, workers)
	}()
	go func() {
		defer wg.Done()
		idx.extKeys, extMap = csr.MergeKeys(extShards, workers)
	}()
	g.triples, triMap = csr.MergeKeys(triShards, workers)
	wg.Wait()
	// The merge's scratch maps do the shard remap below; the index Append
	// continues from is the flat intern tables, bulk-loaded in ID order.
	idx.prov = csr.BuildInternTable(g.provKeys, nil)
	idx.ext = csr.BuildInternTable(idx.extKeys, nil)
	idx.tri = csr.BuildInternTable(g.triples, csr.HashTriple)

	// Same (n, workers) split as the intern pass, so chunk w rewrites
	// exactly the IDs shard w assigned.
	csr.ParallelRange(n, workers, func(w, lo, hi int) {
		provRemap := make([]int32, len(provShards[w]))
		for li, key := range provShards[w] {
			provRemap[li] = provMap[key]
		}
		extRemap := make([]int32, len(extShards[w]))
		for li, key := range extShards[w] {
			extRemap[li] = extMap[key]
		}
		triRemap := make([]int32, len(triShards[w]))
		for li, key := range triShards[w] {
			triRemap[li] = triMap[key]
		}
		for i := lo; i < hi; i++ {
			g.provOfClaim[i] = provRemap[g.provOfClaim[i]]
			idx.extOfClaim[i] = extRemap[idx.extOfClaim[i]]
			g.tripleOfClaim[i] = triRemap[g.tripleOfClaim[i]]
		}
	})
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
		h := idx.item.Hash(item)
		iid := idx.item.ID(h, item, g.items)
		if iid < 0 {
			iid = int32(len(g.items))
			g.items = append(g.items, item)
			idx.item.Insert(h, iid)
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
func assembleGraph(g *graph, idx *claimIndex, firstClaim, firstTriple, workers int) {
	n := len(g.claims)
	nItems := len(g.items)
	nTriples := len(g.triples)

	// Claim -> item and claim -> local candidate offset, elementwise.
	itemOfClaim := make([]int32, n-firstClaim)
	ew := workers
	if n-firstClaim < internShardThreshold {
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

	recountTripleExtractors(g, idx, firstClaim, firstTriple, workers)
}

// recountTripleExtractors brings the per-triple distinct-extractor counts up
// to date: only triples asserted by the claims from firstClaim on can have
// changed. The new triples are a range, recounted in parallel; the old
// triples the batch asserted again are found by a walk over the batch.
// Counts are exact, so the result is independent of the split.
func recountTripleExtractors(g *graph, idx *claimIndex, firstClaim, firstTriple, workers int) {
	nTriples := len(g.triples)
	g.tripleExtractors = csr.ExtendInt32(g.tripleExtractors, nTriples)
	if nTriples-firstTriple < internShardThreshold {
		workers = 1 // goroutine setup would dominate
	}
	ParallelRange(nTriples-firstTriple, workers, func(_, lo, hi int) {
		seen := unseen(len(idx.extKeys))
		for t := firstTriple + lo; t < firstTriple+hi; t++ {
			recountTriple(g, idx.extOfClaim, int32(t), seen)
		}
	})
	if firstTriple == 0 {
		return
	}
	seen := unseen(len(idx.extKeys))
	done := make(map[int32]bool, len(g.claims)-firstClaim)
	for _, t := range g.tripleOfClaim[firstClaim:] {
		if int(t) < firstTriple && !done[t] {
			done[t] = true
			recountTriple(g, idx.extOfClaim, t, seen)
		}
	}
}

// recountTriple recomputes one triple's distinct-extractor count. seen is a
// caller-owned scratch (see unseen) stamped with the triple ID, so it is
// never cleared between triples.
func recountTriple(g *graph, extOfClaim []int32, t int32, seen []int32) {
	cnt := int32(0)
	for _, c := range g.tripleClaims[g.tripleClaimStart[t]:g.tripleClaimStart[t+1]] {
		if x := extOfClaim[c]; seen[x] != t {
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
// columns (claims, keys, per-claim and per-triple IDs) are extended in place
// through that index — the receiver holds their clipped prefixes — and only
// the arrays a batch rewrites for old IDs, the CSRs and support counts, are
// rebuilt around the old ones (bulk copies, no re-hashing of the prefix). The
// batch interns sequentially; the shard-and-merge pass is chosen only onto a
// generation holding no claims — a bulk Compile, or the first Append onto an
// empty one — and only where csr.ShardIntern says it is not the slower of the
// two: a batch of at least csr.ParallelThreshold claims and at least
// csr.ShardInternMinWorkers workers.
//
// The receiver stays fully usable, also concurrently with this and later
// Appends (no word it can address is ever written); the mutable interning
// index moves to the returned generation, so appending repeatedly should
// chain (g0 -> g1 -> g2 ...). A second Append on the same generation is
// correct but rebuilds the index and copies the shared columns once, after
// which that fork owns its own tail. An Append that adds nothing costs
// O(1): it returns the next generation over the receiver's arrays. The caller
// must not mutate either claim slice afterwards.
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
// from a snapshot). It re-interns only the extractor axis per claim (the graph
// keeps every other space's key list); it exists for correctness — chained
// appends never hit it.
func rebuildIndex(g *graph) *claimIndex {
	extKeys, extOfClaim := internExtractors(g.claims)
	return &claimIndex{
		// Clipped, so this index's first append copies each column once and
		// then owns its own tail: a fork never writes another chain's.
		cols:       g.columns.clipped(),
		prov:       csr.BuildInternTable(g.provKeys, nil),
		ext:        csr.BuildInternTable(extKeys, nil),
		tri:        csr.BuildInternTable(g.triples, csr.HashTriple),
		item:       csr.BuildInternTable(g.items, csr.HashItem),
		extKeys:    extKeys,
		extOfClaim: extOfClaim,
	}
}
