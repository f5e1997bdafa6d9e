package extract

import (
	"fmt"
	"reflect"
	"testing"

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
	eq("extHits", got.extHits, want.extHits)
	eq("extBlocks", got.extBlocks, want.extBlocks)
	eq("maxItemTriples", got.maxItemTriples, want.maxItemTriples)
}

// appendStream synthesizes a deterministic extraction stream in which later
// batches revisit earlier sources and triples, add new extractors to
// existing sources (the case that re-shapes the ext→statement incidence),
// flip existing (extractor, statement) cells from miss to hit, and introduce
// brand-new sources, items and triples.
func appendStream(n int) []Extraction {
	xs := make([]Extraction, n)
	for i := range xs {
		nExt := 3 + i/(n/3+1) // the extractor fleet grows as the feed grows
		xs[i] = Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", i%(n/6+1))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", i%3)),
				Object:    kb.StringObject(fmt.Sprintf("v%d", (i*7)%5)),
			},
			Extractor:  fmt.Sprintf("X%d", (i*13)%nExt),
			Pattern:    fmt.Sprintf("pat%d", i%2),
			URL:        fmt.Sprintf("http://site%d.example/page%d", i%17, (i*3)%41),
			Site:       fmt.Sprintf("site%d.example", i%17),
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

// TestExtractAppendAboveShardThreshold crosses the parallel interning
// threshold so the append extends a graph built by the shard-and-merge path
// (pairwise-merged key spaces).
func TestExtractAppendAboveShardThreshold(t *testing.T) {
	xs := appendStream(internShardThreshold + 4096)
	split := internShardThreshold + 256
	base := CompileWorkers(xs[:split], true, 4)
	next := base.AppendWorkers(xs[split:], 4)
	appendGraphsEqual(t, "sharded", next, CompileWorkers(xs, true, 4))
}

// TestExtractAppendLeavesPreviousGenerationUsable pins the generational
// contract: the base graph's arrays must be untouched by an append, and a
// second append on the consumed base (index rebuilt) must still match.
func TestExtractAppendLeavesPreviousGenerationUsable(t *testing.T) {
	xs := appendStream(2000)
	base := Compile(xs[:1500], false)
	want := CompileWorkers(xs[:1500], false, 1)
	next := base.Append(xs[1500:])
	appendGraphsEqual(t, "base-untouched", base, want)
	if next.NumStatements() < base.NumStatements() {
		t.Fatal("appended generation lost statements")
	}
	again := base.Append(xs[1500:])
	appendGraphsEqual(t, "rebuilt-index", again, next)
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

// TestInternParallelPairwiseMerge re-pins the parallel interning path —
// now pairwise-merged — against the sequential loop at several worker
// counts (the graphs must be identical in every field).
func TestInternParallelPairwiseMerge(t *testing.T) {
	xs := appendStream(internShardThreshold + internShardThreshold/2)
	want := CompileWorkers(xs, true, 1)
	for _, workers := range []int{2, 3, 7, 8} {
		got := CompileWorkers(xs, true, workers)
		appendGraphsEqual(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}
