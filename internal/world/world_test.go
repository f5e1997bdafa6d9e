package world

import (
	"testing"

	"kfusion/internal/kb"
	"kfusion/internal/randx"
)

func testWorld(t testing.TB, seed int64) *World {
	t.Helper()
	w, err := Generate(DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateValidatesConfig(t *testing.T) {
	bad := DefaultConfig(1)
	bad.NumEntities = 0
	if _, err := Generate(bad); err == nil {
		t.Error("Generate accepted NumEntities=0")
	}
	bad = DefaultConfig(1)
	bad.FactCoverage = 0
	if _, err := Generate(bad); err == nil {
		t.Error("Generate accepted FactCoverage=0")
	}
	bad = DefaultConfig(1)
	bad.PredicatesPerType = [2]int{5, 2}
	if _, err := Generate(bad); err == nil {
		t.Error("Generate accepted inverted PredicatesPerType")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := testWorld(t, 11), testWorld(t, 11)
	at, bt := a.Truth.Triples(), b.Truth.Triples()
	if len(at) == 0 {
		t.Fatal("no facts generated")
	}
	if len(at) != len(bt) {
		t.Fatalf("fact counts differ: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("fact %d differs: %v vs %v", i, at[i], bt[i])
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats differ: %q vs %q", a.Stats(), b.Stats())
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, b := testWorld(t, 1), testWorld(t, 2)
	at, bt := a.Truth.Triples(), b.Truth.Triples()
	if len(at) == len(bt) {
		same := true
		for i := range at {
			if at[i] != bt[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical worlds")
		}
	}
}

func TestWorldShape(t *testing.T) {
	w := testWorld(t, 3)
	if w.Ont.NumTypes() < 10 {
		t.Errorf("too few types: %d", w.Ont.NumTypes())
	}
	if w.Ont.NumPredicates() < 40 {
		t.Errorf("too few predicates: %d", w.Ont.NumPredicates())
	}
	if got, want := w.Ont.NumEntities(), w.Cfg.NumEntities; got < want {
		t.Errorf("entities %d < configured %d (locations and twins should only add)", got, want)
	}
	if w.Truth.Len() < 1000 {
		t.Errorf("too few facts: %d", w.Truth.Len())
	}
	wantCities := w.Cfg.Continents * w.Cfg.CountriesPerCont * w.Cfg.StatesPerCountry * w.Cfg.CitiesPerState
	if len(w.Cities) != wantCities {
		t.Errorf("cities = %d, want %d", len(w.Cities), wantCities)
	}
}

func TestFunctionalItemsHaveOneTruth(t *testing.T) {
	w := testWorld(t, 5)
	w.Truth.ForEachItem(func(d kb.DataItem, objs []kb.Object) {
		p := w.Ont.Predicate(d.Predicate)
		if p == nil {
			t.Fatalf("fact with unknown predicate %s", d.Predicate)
		}
		if p.Functional && len(objs) != 1 {
			t.Errorf("functional item %v has %d values", d, len(objs))
		}
		if len(objs) > w.Cfg.MaxCardinality {
			t.Errorf("item %v exceeds MaxCardinality: %d", d, len(objs))
		}
	})
}

func TestLocationHierarchyDepths(t *testing.T) {
	w := testWorld(t, 6)
	for _, c := range w.Cities {
		if d := len(w.Hier.Ancestors(c)); d != 3 {
			t.Fatalf("city %s depth = %d, want 3", c, d)
		}
	}
}

func TestIsTrueAcceptsAncestors(t *testing.T) {
	w := testWorld(t, 7)
	checked := 0
	for _, tr := range w.Truth.Triples() {
		p := w.Ont.Predicate(tr.Predicate)
		if !p.Hierarchical {
			continue
		}
		base, ok := tr.Object.Entity()
		if !ok {
			t.Fatalf("hierarchical fact with non-entity object: %v", tr)
		}
		if !w.IsTrue(tr) {
			t.Fatalf("canonical fact not true: %v", tr)
		}
		for _, anc := range w.Hier.Ancestors(base) {
			gen := tr
			gen.Object = kb.EntityObject(anc)
			if !w.IsTrue(gen) {
				t.Fatalf("generalization %v of %v not true", gen, tr)
			}
		}
		checked++
		if checked > 50 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no hierarchical facts to check")
	}
}

func TestIsTrueRejectsWrongValues(t *testing.T) {
	w := testWorld(t, 8)
	src := randx.New(99)
	rejected := 0
	for _, tr := range w.Truth.Triples()[:200] {
		avoid := map[kb.Object]bool{}
		for _, o := range w.Truth.Objects(tr.Item()) {
			avoid[o] = true
		}
		wrong := w.WrongValue(src, tr.Predicate, avoid)
		if avoid[wrong] {
			continue // pool fallback may rarely collide; skip
		}
		bad := tr
		bad.Object = wrong
		if !w.IsTrue(bad) {
			rejected++
		}
	}
	if rejected < 150 {
		t.Errorf("only %d/200 wrong values rejected; WrongValue or IsTrue too lax", rejected)
	}
}

func TestConfusables(t *testing.T) {
	w := testWorld(t, 9)
	src := randx.New(1)
	found := 0
	for _, e := range w.Ont.Entities() {
		if c, ok := w.Confusable(src, e); ok {
			found++
			if c == e {
				t.Fatalf("entity %s confusable with itself", e)
			}
			if w.Ont.Entity(c) == nil {
				t.Fatalf("confusable %s not registered", c)
			}
		}
	}
	if found < w.Cfg.NumEntities/20 {
		t.Errorf("too few confusable entities: %d", found)
	}
}

func TestSiblingPredicates(t *testing.T) {
	w := testWorld(t, 10)
	src := randx.New(2)
	withSibling := 0
	for _, pid := range w.Ont.Predicates() {
		if s, ok := w.SiblingPredicate(src, pid); ok {
			withSibling++
			p, q := w.Ont.Predicate(pid), w.Ont.Predicate(s)
			if p.SubjectType != q.SubjectType || p.Domain != q.Domain {
				t.Fatalf("sibling mismatch: %v vs %v", p, q)
			}
		}
	}
	if withSibling == 0 {
		t.Error("no predicate has siblings; predicate-linkage errors impossible")
	}
}

func TestPopularitySampler(t *testing.T) {
	w := testWorld(t, 12)
	src := randx.New(3)
	counts := map[kb.EntityID]int{}
	for i := 0; i < 20000; i++ {
		counts[w.SampleEntity(src)]++
	}
	rank := w.PopularityRank()
	head, tail := counts[rank[0]], counts[rank[len(rank)-1]]
	if head <= tail {
		t.Errorf("popularity not skewed: head=%d tail=%d", head, tail)
	}
	if w.Popularity(rank[0]) <= w.Popularity(rank[len(rank)-1]) {
		t.Error("popularity weights not ordered by rank")
	}
}

func TestDifficultyRange(t *testing.T) {
	w := testWorld(t, 13)
	if len(w.Difficulty) != w.Ont.NumPredicates() {
		t.Fatalf("difficulty for %d predicates, want %d", len(w.Difficulty), w.Ont.NumPredicates())
	}
	for p, d := range w.Difficulty {
		if d < 0 || d > 1 {
			t.Errorf("difficulty[%s] = %v out of range", p, d)
		}
	}
}

func TestBuildFreebaseSubsetAndDeterministic(t *testing.T) {
	w := testWorld(t, 14)
	fb1, fb2 := BuildFreebase(w), BuildFreebase(w)
	if fb1.Store.Len() != fb2.Store.Len() {
		t.Fatalf("snapshot not deterministic: %d vs %d", fb1.Store.Len(), fb2.Store.Len())
	}
	if fb1.Store.Len() == 0 {
		t.Fatal("empty snapshot")
	}
	if fb1.Store.Len() >= w.Truth.Len() {
		t.Errorf("snapshot (%d) not smaller than truth (%d)", fb1.Store.Len(), w.Truth.Len())
	}
	// Most snapshot triples should be true (wrong-value rate is ~1%, and
	// generalized hierarchical values are still true).
	wrong := 0
	for _, tr := range fb1.Store.Triples() {
		if !w.IsTrue(tr) {
			wrong++
		}
	}
	frac := float64(wrong) / float64(fb1.Store.Len())
	if frac > 0.05 {
		t.Errorf("%.1f%% of snapshot triples are wrong, want <5%%", 100*frac)
	}
	if len(fb1.WrongItems) == 0 && w.Cfg.Freebase.WrongValueRate > 0 {
		t.Log("note: no wrong items sampled in snapshot (possible at small scale)")
	}
}

func TestBuildFreebaseHeadBias(t *testing.T) {
	w := testWorld(t, 15)
	fb := BuildFreebase(w)
	rank := w.PopularityRank()
	n := len(rank)
	headCovered, headTotal := 0, 0
	tailCovered, tailTotal := 0, 0
	for i, e := range rank {
		covered := len(fb.Store.PredicatesOf(e)) > 0
		hasFacts := len(w.Truth.PredicatesOf(e)) > 0
		if !hasFacts {
			continue
		}
		if i < n/5 {
			headTotal++
			if covered {
				headCovered++
			}
		} else if i > 4*n/5 {
			tailTotal++
			if covered {
				tailCovered++
			}
		}
	}
	if headTotal == 0 || tailTotal == 0 {
		t.Skip("not enough entities with facts")
	}
	headRate := float64(headCovered) / float64(headTotal)
	tailRate := float64(tailCovered) / float64(tailTotal)
	if headRate <= tailRate {
		t.Errorf("head coverage %.2f not above tail coverage %.2f", headRate, tailRate)
	}
}
