package extract

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
)

// randomExtractions builds a synthetic extraction stream with heavy
// (source, triple, extractor) collisions so statement dedup, the extractor
// sets and the CSR spans all get exercised.
func randomExtractions(rng *rand.Rand, n int) []Extraction {
	xs := make([]Extraction, n)
	for i := range xs {
		site := fmt.Sprintf("site%d", rng.Intn(8))
		xs[i] = Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(12))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(4))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(6))),
			},
			Extractor: fmt.Sprintf("E%d", rng.Intn(5)),
			URL:       fmt.Sprintf("http://%s/page%d", site, rng.Intn(6)),
			Site:      site,
		}
	}
	return xs
}

// TestCompiledGraphMatchesBruteForce rebuilds every interned relation with
// maps and checks the graph agrees, at both source levels and for several
// worker counts (the graph must be independent of parallelism).
func TestCompiledGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := randomExtractions(rng, 5000)
	for _, siteLevel := range []bool{false, true} {
		want := CompileWorkers(xs, siteLevel, 1)
		for _, workers := range []int{2, 4, 8} {
			got := CompileWorkers(xs, siteLevel, workers)
			if got.NumStatements() != want.NumStatements() || got.NumSources() != want.NumSources() ||
				got.NumTriples() != want.NumTriples() || got.NumItems() != want.NumItems() ||
				got.NumExtractors() != want.NumExtractors() {
				t.Fatalf("siteLevel=%v workers=%d: sizes differ from workers=1", siteLevel, workers)
			}
			for si := 0; si < got.NumStatements(); si++ {
				if got.StatementSource(int32(si)) != want.StatementSource(int32(si)) ||
					got.StatementTriple(int32(si)) != want.StatementTriple(int32(si)) {
					t.Fatalf("siteLevel=%v workers=%d: statement %d differs", siteLevel, workers, si)
				}
			}
			for ti := 0; ti < got.NumTriples(); ti++ {
				if !equalSpans(got.TripleStatements(int32(ti)), want.TripleStatements(int32(ti))) {
					t.Fatalf("siteLevel=%v workers=%d: TripleStatements(%d) differs", siteLevel, workers, ti)
				}
				if got.TripleExtractors(int32(ti)) != want.TripleExtractors(int32(ti)) {
					t.Fatalf("siteLevel=%v workers=%d: TripleExtractors(%d) differs", siteLevel, workers, ti)
				}
			}
		}

		g := want
		sourceOf := func(x Extraction) string {
			if siteLevel {
				return x.Site
			}
			return x.URL
		}

		// Brute-force reconstruction.
		type stKey struct {
			src string
			tri kb.Triple
		}
		stExts := map[stKey][]string{}
		srcExts := map[string][]string{}
		tripleSts := map[kb.Triple]map[stKey]bool{}
		itemSts := map[kb.DataItem]map[stKey]bool{}
		tripleExts := map[kb.Triple]map[string]bool{}
		for _, x := range xs {
			src := sourceOf(x)
			k := stKey{src, x.Triple}
			if !hasString(stExts[k], x.Extractor) {
				stExts[k] = append(stExts[k], x.Extractor)
			}
			if !hasString(srcExts[src], x.Extractor) {
				srcExts[src] = append(srcExts[src], x.Extractor)
			}
			if tripleSts[x.Triple] == nil {
				tripleSts[x.Triple] = map[stKey]bool{}
			}
			tripleSts[x.Triple][k] = true
			if itemSts[x.Triple.Item()] == nil {
				itemSts[x.Triple.Item()] = map[stKey]bool{}
			}
			itemSts[x.Triple.Item()][k] = true
			if tripleExts[x.Triple] == nil {
				tripleExts[x.Triple] = map[string]bool{}
			}
			tripleExts[x.Triple][x.Extractor] = true
		}

		if g.NumStatements() != len(stExts) {
			t.Fatalf("siteLevel=%v: %d statements, want %d", siteLevel, g.NumStatements(), len(stExts))
		}
		if g.NumSources() != len(srcExts) {
			t.Fatalf("siteLevel=%v: %d sources, want %d", siteLevel, g.NumSources(), len(srcExts))
		}
		for si := 0; si < g.NumStatements(); si++ {
			src := g.SourceKey(g.StatementSource(int32(si)))
			tri := g.Triple(g.StatementTriple(int32(si)))
			k := stKey{src, tri}
			if !equalNames(g, g.StatementExtractors(int32(si)), stExts[k]) {
				t.Fatalf("siteLevel=%v: statement %d extractors = %v, want %v",
					siteLevel, si, names(g, g.StatementExtractors(int32(si))), stExts[k])
			}
		}
		for s := 0; s < g.NumSources(); s++ {
			if !equalNames(g, g.SourceExtractors(int32(s)), srcExts[g.SourceKey(int32(s))]) {
				t.Fatalf("siteLevel=%v: source %q extractor set mismatch", siteLevel, g.SourceKey(int32(s)))
			}
			if len(g.SourceStatements(int32(s))) == 0 {
				t.Fatalf("siteLevel=%v: source %q has no statements", siteLevel, g.SourceKey(int32(s)))
			}
			for _, si := range g.SourceStatements(int32(s)) {
				if g.StatementSource(si) != int32(s) {
					t.Fatalf("siteLevel=%v: SourceStatements(%d) contains foreign statement", siteLevel, s)
				}
			}
		}
		for ti := 0; ti < g.NumTriples(); ti++ {
			tri := g.Triple(int32(ti))
			if len(g.TripleStatements(int32(ti))) != len(tripleSts[tri]) {
				t.Fatalf("siteLevel=%v: triple %v has %d statements, want %d",
					siteLevel, tri, len(g.TripleStatements(int32(ti))), len(tripleSts[tri]))
			}
			if int(g.TripleExtractors(int32(ti))) != len(tripleExts[tri]) {
				t.Fatalf("siteLevel=%v: triple %v extractor count %d, want %d",
					siteLevel, tri, g.TripleExtractors(int32(ti)), len(tripleExts[tri]))
			}
		}
		for i := 0; i < g.NumItems(); i++ {
			item := g.Item(int32(i))
			if int(g.ItemStatements(int32(i))) != len(itemSts[item]) {
				t.Fatalf("siteLevel=%v: item %v has %d statements, want %d",
					siteLevel, item, g.ItemStatements(int32(i)), len(itemSts[item]))
			}
			for _, ti := range g.ItemTriples(int32(i)) {
				if g.ItemOfTriple(ti) != int32(i) {
					t.Fatalf("siteLevel=%v: ItemTriples(%d) contains foreign triple", siteLevel, i)
				}
			}
		}
	}
}

// extSpan returns extractor x's span of the ext→statement incidence: the
// statements whose source it processed, ascending, and their hit flags.
func extSpan(g *Compiled, x int32) (sts []int32, hits []float64) {
	lo, hi := g.extStStart[x], g.extStStart[x+1]
	return g.extSts[lo:hi], g.extHitsF[lo:hi]
}

// TestExtStatementIncidenceMatchesBruteForce cross-checks the ext→statement
// CSR (the two-layer M-step's reduction domain) against a direct per-source
// reconstruction: extractor x's span must hold exactly the statements of the
// sources x processed, ascending, with hit flags matching membership in the
// statement's extractor list — and the block partition must tile the spans.
// Every graph form is checked: a compile, a chain of three Appends whose
// middle batch pairs old sources with new extractors (the joiners the merge
// interleaves into old spans), and the snapshot decode of that chain's end.
func TestExtStatementIncidenceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	check := func(name string, g *Compiled) {
		t.Helper()
		for x := int32(0); x < int32(g.NumExtractors()); x++ {
			var wantSts []int32
			var wantHits []bool
			for si := int32(0); si < int32(g.NumStatements()); si++ {
				if !containsID(g.SourceExtractors(g.StatementSource(si)), x) {
					continue
				}
				wantSts = append(wantSts, si)
				wantHits = append(wantHits, containsID(g.StatementExtractors(si), x))
			}
			sts, hits := extSpan(g, x)
			if !equalSpans(sts, wantSts) {
				t.Fatalf("%s: extractor %d's span = %v, want %v", name, x, sts, wantSts)
			}
			for i, h := range hits {
				want := 0.0
				if wantHits[i] {
					want = 1
				}
				if h != want {
					t.Fatalf("%s: extractor %d's hit[%d] = %v, want %v", name, x, i, h, wantHits[i])
				}
			}
		}
		// Blocks tile the spans in extractor order.
		pos := map[int32]int{}
		for _, b := range g.ExtStatementBlocks() {
			sts, hits := g.ExtBlockStatementsF(b)
			if len(sts) == 0 || len(sts) != len(hits) {
				t.Fatalf("%s: bad block %+v", name, b)
			}
			full, _ := extSpan(g, b.Group)
			if pos[b.Group]+len(sts) > len(full) || !equalSpans(sts, full[pos[b.Group]:pos[b.Group]+len(sts)]) {
				t.Fatalf("%s: block %+v does not continue span of extractor %d", name, b, b.Group)
			}
			pos[b.Group] += len(sts)
		}
		for x := int32(0); x < int32(g.NumExtractors()); x++ {
			full, _ := extSpan(g, x)
			if pos[x] != len(full) {
				t.Fatalf("%s: blocks cover %d of %d statements of extractor %d", name, pos[x], len(full), x)
			}
		}
	}
	for _, n := range []int{0, 1, 300, 5000} {
		xs := randomExtractions(rng, n)
		// The chain's stream: the middle third's extractors are renamed, so
		// that batch brings new extractors to the pages the first one saw.
		chained := slices.Clone(xs)
		for i := n / 3; i < 2*n/3; i++ {
			chained[i].Extractor = "new-" + chained[i].Extractor
		}
		for _, siteLevel := range []bool{false, true} {
			name := fmt.Sprintf("n=%d siteLevel=%v", n, siteLevel)
			check(name+" compile", Compile(xs, siteLevel))

			g0 := Compile(chained[:n/3], siteLevel)
			g1 := g0.Append(chained[n/3 : 2*n/3])
			g2 := g1.Append(chained[2*n/3:])
			if n >= 300 && !joinsOldSource(g0, g1) {
				t.Fatalf("%s: the middle batch pairs no old source with a new extractor", name)
			}
			check(name+" append", g2)

			var buf bytes.Buffer
			if err := g2.EncodeSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeSnapshot(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			check(name+" decode", dec)
		}
	}
}

// joinsOldSource reports whether next lists, for some source of prev, an
// extractor prev did not have.
func joinsOldSource(prev, next *Compiled) bool {
	for s := int32(0); s < int32(prev.NumSources()); s++ {
		for _, x := range next.SourceExtractors(s) {
			if int(x) >= prev.NumExtractors() {
				return true
			}
		}
	}
	return false
}

// indexMapsGraph checks that idx maps every key of g's ID spaces to its ID:
// sources, extractors, triples, statements, and items once interned. The
// tables' seeds and slot layouts are private to each table and not compared.
func indexMapsGraph(t *testing.T, name string, idx *extractIndex, g *Compiled) {
	t.Helper()
	for id, key := range g.sources {
		if got := idx.src.ID(idx.src.Hash(key), key, g.sources); got != int32(id) {
			t.Fatalf("%s: source %q maps to %d, want %d", name, key, got, id)
		}
	}
	for id, key := range g.extractors {
		if got := idx.ext.ID(idx.ext.Hash(key), key, g.extractors); got != int32(id) {
			t.Fatalf("%s: extractor %q maps to %d, want %d", name, key, got, id)
		}
	}
	for id, key := range g.triples {
		if got := idx.tri.ID(idx.tri.Hash(key), key, g.triples); got != int32(id) {
			t.Fatalf("%s: triple %v maps to %d, want %d", name, key, got, id)
		}
	}
	for id, key := range g.items {
		if got := idx.item.ID(idx.item.Hash(key), key, g.items); got != int32(id) {
			t.Fatalf("%s: item %v maps to %d, want %d", name, key, got, id)
		}
	}
	for si := range g.stSource {
		if got, added := idx.st.Intern(g.stSource[si], g.stTriple[si], -1); added || got != int32(si) {
			t.Fatalf("%s: statement %d maps to %d (absent: %v)", name, si, got, added)
		}
	}
}

// TestInternParallelMatchesSequential holds a compile well above
// csr.ParallelThreshold to the one-worker compile at every workers setting
// from 2 to 8, on both source levels: the whole graph — every ID space, every
// CSR span, every extractor list and the ext→statement blocks — must be
// identical, the index the compile leaves must map every key to its ID
// (indexMapsGraph), and an Append from that index must equal a recompile of
// the concatenated stream.
func TestInternParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	xs := randomExtractions(rng, csr.ParallelThreshold+4321)
	batch := randomExtractions(rng, 700)
	for _, siteLevel := range []bool{false, true} {
		want := CompileWorkers(xs, siteLevel, 1)
		wantNext := CompileWorkers(slices.Concat(xs, batch), siteLevel, 1)
		for workers := 2; workers <= 8; workers++ {
			got := CompileWorkers(xs, siteLevel, workers)
			name := fmt.Sprintf("siteLevel=%v workers=%d", siteLevel, workers)
			got.token = want.token // a graph's identity: the one field no two compiles share
			if !reflect.DeepEqual(got.graph, want.graph) {
				t.Fatalf("%s: compile diverged from the one-worker compile", name)
			}
			indexMapsGraph(t, name, got.idx, got)
			appendGraphsEqual(t, name+" +batch", got.AppendWorkers(batch, 1), wantNext)
		}
	}
}

// TestCompileWorkersSameGraph holds the compiled graph to one value for every
// workers setting from 1 to 8, on inputs just under and just over
// csr.ParallelThreshold — field by field, through the dump of every field
// (dumpGraph), and through the interning index each compile leaves for Append
// to continue from (indexMapsGraph).
func TestCompileWorkersSameGraph(t *testing.T) {
	for _, n := range []int{csr.ParallelThreshold - 1, csr.ParallelThreshold + 1} {
		xs := randomExtractions(rand.New(rand.NewSource(31)), n)
		for _, siteLevel := range []bool{false, true} {
			want := CompileWorkers(xs, siteLevel, 1)
			wantDump := dumpGraph(t, want)
			for workers := 1; workers <= 8; workers++ {
				got := CompileWorkers(xs, siteLevel, workers)
				name := fmt.Sprintf("n=%d siteLevel=%v workers=%d", n, siteLevel, workers)
				appendGraphsEqual(t, name, got, want)
				if !bytes.Equal(dumpGraph(t, got), wantDump) {
					t.Fatalf("%s: graph dump differs from workers=1", name)
				}
				indexMapsGraph(t, name, got.idx, got)
			}
		}
	}
}

func TestCompiledGraphEmpty(t *testing.T) {
	g := Compile(nil, false)
	if g.NumStatements() != 0 || g.NumSources() != 0 || g.NumTriples() != 0 ||
		g.NumItems() != 0 || g.NumExtractors() != 0 || g.MaxItemTriples() != 0 {
		t.Fatalf("empty graph not empty: %+v", g)
	}
}

func equalSpans(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func names(g *Compiled, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.ExtractorName(id)
	}
	return out
}

func equalNames(g *Compiled, ids []int32, want []string) bool {
	if len(ids) != len(want) {
		return false
	}
	for i, id := range ids {
		if g.ExtractorName(id) != want[i] {
			return false
		}
	}
	return true
}

func hasString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
