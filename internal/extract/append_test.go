package extract

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
)

// appendGraphsEqual compares every structural field of two compiled
// extraction graphs. Empty and nil slices are interchangeable.
func appendGraphsEqual(t *testing.T, name string, got, want *Compiled) {
	t.Helper()
	eq := func(field string, g, w any) {
		t.Helper()
		gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
		if gv.Kind() == reflect.Slice && gv.Len() == 0 && wv.Len() == 0 {
			return
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: field %s differs:\n got %v\nwant %v", name, field, g, w)
		}
	}
	eq("siteLevel", got.siteLevel, want.siteLevel)
	eq("sources", got.sources, want.sources)
	eq("extractors", got.extractors, want.extractors)
	eq("stSource", got.stSource, want.stSource)
	eq("stTriple", got.stTriple, want.stTriple)
	eq("stExtStart", got.stExtStart, want.stExtStart)
	eq("stExts", got.stExts, want.stExts)
	eq("srcExtStart", got.srcExtStart, want.srcExtStart)
	eq("srcExts", got.srcExts, want.srcExts)
	eq("srcStStart", got.srcStStart, want.srcStStart)
	eq("srcSts", got.srcSts, want.srcSts)
	eq("triples", got.triples, want.triples)
	eq("tripleStStart", got.tripleStStart, want.tripleStStart)
	eq("tripleSts", got.tripleSts, want.tripleSts)
	eq("tripleExts", got.tripleExts, want.tripleExts)
	eq("items", got.items, want.items)
	eq("itemOfTriple", got.itemOfTriple, want.itemOfTriple)
	eq("itemTripleStart", got.itemTripleStart, want.itemTripleStart)
	eq("itemTriples", got.itemTriples, want.itemTriples)
	eq("itemStatements", got.itemStatements, want.itemStatements)
	eq("extStStart", got.extStStart, want.extStStart)
	eq("extSts", got.extSts, want.extSts)
	eq("extHitsF", got.extHitsF, want.extHitsF)
	eq("extBlocks", got.extBlocks, want.extBlocks)
	eq("maxItemTriples", got.maxItemTriples, want.maxItemTriples)
}

// appendStream synthesizes a deterministic extraction stream in which later
// batches revisit earlier sources and triples, add new extractors to
// existing sources (the case that re-shapes the ext→statement incidence),
// flip existing (extractor, statement) cells from miss to hit, and introduce
// brand-new sources, items and triples. Every fourth record re-extracts the
// statement (source and triple) of the record at a third of its index, with
// the extractor its own index picks; the fleet grows from three extractors to
// five along the feed, so a later batch grows old statements' extractor
// lists.
func appendStream(n int) []Extraction {
	xs := make([]Extraction, n)
	for i := range xs {
		nExt := 3 + i/(n/3+1) // the extractor fleet grows as the feed grows
		j := i
		if i%4 == 3 {
			j = i / 3
		}
		xs[i] = Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", j%(n/6+1))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", j%3)),
				Object:    kb.StringObject(fmt.Sprintf("v%d", (j*7)%5)),
			},
			Extractor:  fmt.Sprintf("X%d", (i*13)%nExt),
			Pattern:    fmt.Sprintf("pat%d", i%2),
			URL:        fmt.Sprintf("http://site%d.example/page%d", j%17, (j*3)%41),
			Site:       fmt.Sprintf("site%d.example", j%17),
			Confidence: -1,
		}
	}
	return xs
}

// TestExtractAppendMatchesRecompile is the tentpole contract at the
// extraction layer: appending a batch produces the exact graph a fresh
// compile of the concatenated stream builds — same IDs for every
// pre-existing source, extractor, triple, item and statement, same CSR and
// incidence bits — at several split points, both source levels, and several
// worker counts.
func TestExtractAppendMatchesRecompile(t *testing.T) {
	xs := appendStream(3000)
	for _, siteLevel := range []bool{false, true} {
		for _, split := range []int{0, 1, 1500, 2700, 2999, 3000} {
			for _, workers := range []int{1, 2, 4, 8} {
				base := CompileWorkers(xs[:split], siteLevel, workers)
				next := base.AppendWorkers(xs[split:], workers)
				want := CompileWorkers(xs, siteLevel, workers)
				appendGraphsEqual(t, fmt.Sprintf("site=%v split=%d workers=%d", siteLevel, split, workers), next, want)
				if next.Generation() != 1 {
					t.Fatalf("generation = %d, want 1", next.Generation())
				}
			}
		}
	}
}

// TestExtractAppendChain appends in several batches — the streaming shape —
// and requires the final generation to equal one big compile.
func TestExtractAppendChain(t *testing.T) {
	xs := appendStream(4000)
	g := Compile(xs[:1000], true)
	for _, cut := range [][2]int{{1000, 1800}, {1800, 1801}, {1801, 3990}, {3990, 4000}} {
		g = g.Append(xs[cut[0]:cut[1]])
	}
	if g.Generation() != 4 {
		t.Fatalf("generation = %d, want 4", g.Generation())
	}
	appendGraphsEqual(t, "chain", g, Compile(xs, true))
}

// TestExtractAppendAboveShardThreshold appends onto a compile that crosses
// csr.ParallelThreshold at four workers, where the compile's counting passes
// split, and holds the result to the one-compile graph of the whole stream.
func TestExtractAppendAboveShardThreshold(t *testing.T) {
	xs := appendStream(csr.ParallelThreshold + 4096)
	split := csr.ParallelThreshold + 256
	base := CompileWorkers(xs[:split], true, 4)
	next := base.AppendWorkers(xs[split:], 4)
	appendGraphsEqual(t, "sharded", next, CompileWorkers(xs, true, 4))
}

// TestExtractAppendLeavesPreviousGenerationUsable pins the generational
// contract: the base graph's arrays must be untouched by an append that grows
// old statements' extractor lists, and a second append on the consumed base
// (index rebuilt) must still match. A generation's hit-list IDs stay as they
// were when the next batch grows its statements' lists.
func TestExtractAppendLeavesPreviousGenerationUsable(t *testing.T) {
	xs := appendStream(2000)
	base := Compile(xs[:1500], false)
	want := CompileWorkers(xs[:1500], false, 1)
	next := base.Append(xs[1500:])
	if _, _, grown := next.Parent(); len(grown) == 0 {
		t.Fatal("scenario broken: the batch grew no old statement's extractor list")
	}
	appendGraphsEqual(t, "base-untouched", base, want)
	if next.NumStatements() < base.NumStatements() {
		t.Fatal("appended generation lost statements")
	}
	again := base.Append(xs[1500:])
	appendGraphsEqual(t, "rebuilt-index", again, next)

	// A batch that re-extracts old statements with another extractor grows
	// their lists, so their hit-list IDs change — in the new generation only.
	late := slices.Clone(xs[:300])
	for i := range late {
		late[i].Extractor = "late"
	}
	ids, n := slices.Clone(next.stHitList), next.NumHitLists()
	after := next.Append(late)
	if _, _, grown := after.Parent(); len(grown) == 0 {
		t.Fatal("scenario broken: the batch grew no old statement's extractor list")
	}
	if !slices.Equal(next.stHitList, ids) || next.NumHitLists() != n {
		t.Fatal("Append rewrote the previous generation's hit-list IDs")
	}
	requireHitListsNameLists(t, "grown", after)
}

// TestExtractAppendNothingIsConstantCost pins the empty append: it returns
// the next generation over the receiver's graph without rebuilding anything
// — on a chained generation and on one whose index was already taken.
func TestExtractAppendNothingIsConstantCost(t *testing.T) {
	xs := appendStream(2000)
	base := Compile(xs[:1500], true)
	g := base.Append(xs[1500:])
	for _, batch := range [][]Extraction{nil, {}} {
		next := g.Append(batch)
		if next.Generation() != g.Generation()+1 {
			t.Fatalf("generation = %d, want %d", next.Generation(), g.Generation()+1)
		}
		appendGraphsEqual(t, "empty append", next, g)
		// The index moved on with the chain: the next real append must not
		// have to rebuild it.
		if next.idx == nil || g.idx != nil {
			t.Fatal("empty append did not hand the interning index on")
		}
		g = next
	}
	appendGraphsEqual(t, "after empty appends", g, Compile(xs, true))

	for name, c := range map[string]*Compiled{"chained": g, "consumed": base} {
		allocs := testing.AllocsPerRun(100, func() { c = c.Append(nil) })
		if allocs > 2 {
			t.Errorf("%s: empty append allocates %v objects per call, want O(1)", name, allocs)
		}
	}
}

// TestInternParallelPairwiseMerge holds a compile of an append stream 1.5×
// csr.ParallelThreshold long to the one-worker compile at worker counts from 4
// to 8 (the graphs must be identical in every field).
func TestInternParallelPairwiseMerge(t *testing.T) {
	xs := appendStream(csr.ParallelThreshold + csr.ParallelThreshold/2)
	want := CompileWorkers(xs, true, 1)
	for workers := 4; workers <= 8; workers++ {
		got := CompileWorkers(xs, true, workers)
		appendGraphsEqual(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// requireSameGraph holds an appended generation to a Compile of the
// concatenated stream twice over: field by field (the incidence in all four
// of its arrays included) and through the dump of every field (dumpGraph).
// The generation counter is the one thing that tells them apart, so the
// recompile is given got's.
func requireSameGraph(t *testing.T, name string, got *Compiled, stream []Extraction, siteLevel bool) {
	t.Helper()
	want := Compile(stream, siteLevel)
	appendGraphsEqual(t, name, got, want)
	want.gen = got.gen
	if !bytes.Equal(dumpGraph(t, got), dumpGraph(t, want)) {
		t.Fatalf("%s: graph dump differs from the recompile's", name)
	}
}

// TestExtractAppendMergesIncidence drives the ext→statement merge through
// everything a batch can do to an extractor's span, all in one Append onto a
// head whose spans run past a csr.ReduceBlockSize boundary:
//
//   - X1 extracts from page A for the first time: A's old statements — whose
//     IDs alternate with page B's, which X1 already covers — join X1's span
//     interleaved with its old entries, below the batch's new statements;
//   - X1 re-extracts a statement of B that only X0 had: an old miss in X1's
//     span turns into a hit where it stands;
//   - X1 re-extracts a statement of A: a joiner that arrives as a hit;
//   - X9 is new to the feed and takes a span of old (joining) and new
//     statements;
//   - the batch brings new statements on old pages and a new page.
//
// Then the same parent is appended to a second time with another batch (a
// fork: the index is gone and rebuilt, the parent's arrays must not have
// moved), and an empty Append follows each.
func TestExtractAppendMergesIncidence(t *testing.T) {
	ex := func(subj int, extractor, page string) Extraction {
		return Extraction{
			Triple:     kb.Triple{Subject: kb.EntityID(fmt.Sprintf("s%d", subj)), Predicate: "p", Object: kb.StringObject("v")},
			Extractor:  extractor,
			URL:        "http://site.example/" + page,
			Site:       "site.example",
			Confidence: -1,
		}
	}
	const perPage = csr.ReduceBlockSize + 100
	var head []Extraction
	for i := 0; i < perPage; i++ {
		head = append(head, ex(i, "X0", "A"), ex(i, "X0", "B")) // statements 2i (A) and 2i+1 (B)
	}
	head = append(head, ex(7, "X1", "B")) // X1 covers B: hits B's statement of s7, misses the rest
	batch := []Extraction{
		ex(3, "X1", "A"),         // pairs A with X1; joiner arriving as a hit
		ex(11, "X1", "B"),        // old miss → hit
		ex(perPage+1, "X1", "A"), // new statement on an old page
		ex(5, "X9", "B"),         // brand-new extractor joins B
		ex(perPage+2, "X9", "C"), // and a brand-new page
		ex(perPage+2, "X0", "C"),
	}
	other := []Extraction{ex(4, "X2", "A"), ex(perPage+9, "X1", "D"), ex(0, "X1", "B")}

	base := Compile(head, false)
	x1 := int32(1)
	if sts, _ := extSpan(base, x1); len(sts) != perPage {
		t.Fatalf("scenario broken: X1 covers %d statements before the batch, want B's %d", len(sts), perPage)
	}
	next := base.Append(batch)
	requireSameGraph(t, "merge", next, slices.Concat(head, batch), false)

	// The scenario did what it says: X1's span doubled past a block boundary
	// by interleaving, and carries exactly its four hits.
	sts, hits := extSpan(next, x1)
	if len(sts) != 2*perPage+1 || sts[0] != 0 || sts[1] != 1 || !slices.IsSorted(sts) {
		t.Fatalf("X1's span has %d entries starting %v; want A's and B's %d old statements interleaved, then one new", len(sts), sts[:4], 2*perPage)
	}
	nHits := 0
	for k, h := range hits {
		switch h {
		case 1:
			nHits++
		case 0:
		default:
			t.Fatalf("X1 entry %d: hit flag %v, neither 0 nor 1", k, h)
		}
	}
	if nHits != 4 {
		t.Fatalf("X1 hits %d statements, want 4 (s7@B, s3@A, s11@B and the new one)", nHits)
	}
	if _, _, grown := next.Parent(); len(grown) != 3 {
		t.Fatalf("Parent reports %v as grown, want the three old statements the batch added an extractor to", grown)
	}

	fork := base.Append(other)
	requireSameGraph(t, "fork", fork, slices.Concat(head, other), false)
	requireSameGraph(t, "parent after two appends", base, head, false)
	requireSameGraph(t, "chain continues", next.Append(other), slices.Concat(head, batch, other), false)

	for name, g := range map[string]*Compiled{"merge": next, "fork": fork} {
		empty := g.Append(nil)
		appendGraphsEqual(t, name+" + empty", empty, g)
		if empty.Token() != g.Token() {
			t.Fatalf("%s: an empty Append changed the graph's token", name)
		}
	}
	if tok, n, _ := next.Parent(); tok != base.Token() || n != base.NumStatements() {
		t.Fatalf("Parent() = (%d, %d), want the parent's token %d and statement count %d", tok, n, base.Token(), base.NumStatements())
	}
}

// TestCompileAllocationBound is the interning loop's allocation guard: a
// compile, and an append chain, over a fixed 20k-extraction set allocate a
// number of objects that does not depend on how many statements, sources or
// triples the set holds — every column, table and extractor list is one
// presized or amortised allocation, never an object per row. A slice per new
// statement or source would add thousands here.
func TestCompileAllocationBound(t *testing.T) {
	xs := goldenStream(20_000)
	compile := testing.AllocsPerRun(5, func() { CompileWorkers(xs, false, 1) })
	chain := testing.AllocsPerRun(5, func() {
		g := CompileWorkers(xs[:10_000], false, 1)
		for at := 10_000; at < len(xs); at += 2_000 {
			g = g.AppendWorkers(xs[at:at+2_000], 1)
		}
	})
	g := Compile(xs, false)
	t.Logf("%d statements, %d sources, %d triples: compile %.0f allocations, 10k + 5 × 2k chain %.0f",
		g.NumStatements(), g.NumSources(), g.NumTriples(), compile, chain)
	// Measured: compile 82, chain 416 (go1.24, linux/amd64; 73 and 402 before
	// the hit-list IDs' table and column) — growth steps of the tables and
	// columns, the CSR builds and the sparse grown-row maps, all logarithmic
	// in the set or constant per call.
	const compileBound, chainBound = 100, 550
	if compile > compileBound || chain > chainBound {
		t.Errorf("compile %.0f allocations (bound %d), append chain %.0f (bound %d): is there an object per row again?",
			compile, compileBound, chain, chainBound)
	}
}

// requireHitListsNameLists checks the hit-list column's contract on g: every
// ID is below NumHitLists, and two statements share an ID exactly when their
// extractor lists are equal, element for element and in order.
func requireHitListsNameLists(t *testing.T, name string, g *Compiled) {
	t.Helper()
	if len(g.stHitList) != g.NumStatements() {
		t.Fatalf("%s: %d hit-list IDs for %d statements", name, len(g.stHitList), g.NumStatements())
	}
	idOf := map[string]int32{}
	listOf := map[int32]string{}
	for si := int32(0); int(si) < g.NumStatements(); si++ {
		id, list := g.StatementHitList(si), fmt.Sprint(g.StatementExtractors(si))
		if id < 0 || int(id) >= g.NumHitLists() {
			t.Fatalf("%s: statement %d has hit-list ID %d, outside [0, %d)", name, si, id, g.NumHitLists())
		}
		if was, ok := idOf[list]; ok && was != id {
			t.Fatalf("%s: list %s has IDs %d and %d", name, list, was, id)
		}
		if was, ok := listOf[id]; ok && was != list {
			t.Fatalf("%s: hit-list ID %d names %s and %s", name, id, was, list)
		}
		idOf[list], listOf[id] = id, list
	}
}

// TestHitListIDsNameLists holds the hit-list column to its contract — equal
// ordered lists, equal IDs, and only those — on a compile, along an append
// chain whose batches grow old statements' lists, on a fork (a second Append
// on a generation, which renumbers from a rebuilt index) and its successor,
// and on a decoded graph and an Append onto it. The feed — two statements of
// one page hit by X0 and X1 in both orders, then fuzzFeed's colliding world —
// holds equal extractor sets in different orders, which must not share an
// ID.
func TestHitListIDsNameLists(t *testing.T) {
	swapped := func(subj, extractor string) Extraction {
		return Extraction{
			Triple:     kb.Triple{Subject: kb.EntityID(subj), Predicate: "p0", Object: kb.StringObject("v0")},
			Extractor:  extractor,
			URL:        "http://site0.example/page0",
			Site:       "site0.example",
			Confidence: -1,
		}
	}
	xs := slices.Concat([]Extraction{swapped("a", "X0"), swapped("a", "X1"), swapped("b", "X1"), swapped("b", "X0")},
		fuzzFeed([]byte("the quick brown fox jumps over the lazy dog"), 3000))
	for _, siteLevel := range []bool{false, true} {
		at := fmt.Sprintf("siteLevel=%v", siteLevel)
		full := Compile(xs, siteLevel)
		requireHitListsNameLists(t, at+" compile", full)
		orders := map[string]bool{}
		for si := int32(0); int(si) < full.NumStatements(); si++ {
			l := slices.Clone(full.StatementExtractors(si))
			slices.Sort(l)
			orders[fmt.Sprint(l)+fmt.Sprint(full.StatementExtractors(si))] = true
		}
		sets := map[string]bool{}
		for k := range orders {
			sets[k[:strings.Index(k, "]")+1]] = true
		}
		if len(sets) == len(orders) {
			t.Fatalf("%s: scenario broken: no extractor set appears in two orders", at)
		}

		g := Compile(xs[:1000], siteLevel)
		grew := false
		for _, cut := range [][2]int{{1000, 1800}, {1800, 1801}, {1801, 1801}, {1801, 2600}} {
			g = g.Append(xs[cut[0]:cut[1]])
			_, _, grown := g.Parent()
			grew = grew || len(grown) > 0
			requireHitListsNameLists(t, fmt.Sprintf("%s chain to %d", at, cut[1]), g)
		}
		if !grew {
			t.Fatalf("%s: scenario broken: no batch grew an old statement's list", at)
		}
		mid := g
		g = g.Append(xs[2600:])
		fork := mid.Append(slices.Concat(xs[2800:], xs[:300]))
		requireHitListsNameLists(t, at+" chain end", g)
		requireHitListsNameLists(t, at+" fork", fork)
		requireHitListsNameLists(t, at+" fork's successor", fork.Append(xs[2600:2800]))

		var buf bytes.Buffer
		if err := g.EncodeSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		requireHitListsNameLists(t, at+" decoded", dec)
		requireHitListsNameLists(t, at+" decoded + batch", dec.Append(xs[:500]))
	}
}
