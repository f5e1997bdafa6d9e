package kb

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestObjectConstructorsAndAccessors(t *testing.T) {
	e := EntityObject("/m/07r1h")
	if id, ok := e.Entity(); !ok || id != "/m/07r1h" {
		t.Errorf("EntityObject round trip: got (%q,%v)", id, ok)
	}
	s := StringObject("Syracuse NY")
	if _, ok := s.Entity(); ok {
		t.Error("string object claimed to be an entity")
	}
	n := NumberObject(1986)
	if n.Kind != KindNumber || n.Num != 1986 {
		t.Errorf("NumberObject: %+v", n)
	}
	if (Object{}).IsZero() != true || e.IsZero() {
		t.Error("IsZero misclassified")
	}
}

func TestObjectStringParseRoundTrip(t *testing.T) {
	cases := []Object{
		EntityObject("/m/0abc"),
		StringObject("hello world"),
		StringObject(""),
		NumberObject(3.25),
		NumberObject(-17),
	}
	for _, o := range cases {
		got, err := ParseObject(o.String())
		if err != nil {
			t.Fatalf("ParseObject(%q): %v", o.String(), err)
		}
		if got != o {
			t.Errorf("round trip %v -> %q -> %v", o, o.String(), got)
		}
		if app := string(o.AppendString([]byte("x"))); app != "x"+o.String() {
			t.Errorf("AppendString wrote %q after the prefix, String() is %q", app, o.String())
		}
	}
}

func TestParseObjectErrors(t *testing.T) {
	for _, bad := range []string{"", "e", "x:oops", "n:notanumber", "plain"} {
		if _, err := ParseObject(bad); err == nil {
			t.Errorf("ParseObject(%q) succeeded, want error", bad)
		}
	}
}

func TestTripleEncodeParseRoundTrip(t *testing.T) {
	tr := Triple{Subject: "/m/07r1h", Predicate: "/people/person/birth_date", Object: StringObject("7/3/1962")}
	got, err := ParseTriple(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != tr {
		t.Errorf("round trip: got %v want %v", got, tr)
	}
	if _, err := ParseTriple("only\ttwo"); err == nil {
		t.Error("ParseTriple accepted malformed input")
	}
	if _, err := ParseTriple("a\tb\tq:bad"); err == nil {
		t.Error("ParseTriple accepted bad object")
	}
}

func TestTripleItem(t *testing.T) {
	tr := Triple{Subject: "s", Predicate: "p", Object: NumberObject(1)}
	d := tr.Item()
	if d.Subject != "s" || d.Predicate != "p" {
		t.Errorf("Item() = %v", d)
	}
	if d.WithObject(NumberObject(1)) != tr {
		t.Error("WithObject did not reconstruct the triple")
	}
}

func TestOntologyRegistrationAndLookup(t *testing.T) {
	o := NewOntology()
	o.AddType(Type{ID: "/people/person", Domain: "people", Name: "person"})
	o.AddType(Type{ID: "/film/film", Domain: "film", Name: "film"})
	o.AddPredicate(Predicate{ID: "/people/person/birth_date", SubjectType: "/people/person", Domain: DomainString, Functional: true})
	o.AddPredicate(Predicate{ID: "/people/person/children", SubjectType: "/people/person", Domain: DomainEntity, ObjectType: "/people/person"})
	o.AddEntity(Entity{ID: "/m/1", Name: "Tom Cruise", Types: []TypeID{"/people/person"}})
	o.AddEntity(Entity{ID: "/m/2", Name: "Top Gun", Types: []TypeID{"/film/film"}})

	if o.NumTypes() != 2 || o.NumPredicates() != 2 || o.NumEntities() != 2 {
		t.Fatalf("counts: %d types %d preds %d entities", o.NumTypes(), o.NumPredicates(), o.NumEntities())
	}
	if o.Type("/people/person") == nil || o.Type("/nope") != nil {
		t.Error("Type lookup wrong")
	}
	p := o.Predicate("/people/person/birth_date")
	if p == nil || !p.Functional || p.Cardinality != 1 {
		t.Errorf("functional predicate defaults: %+v", p)
	}
	np := o.Predicate("/people/person/children")
	if np == nil || np.Functional || np.Cardinality != 2 {
		t.Errorf("non-functional predicate defaults: %+v", np)
	}
	if got := o.EntitiesOfType("/people/person"); len(got) != 1 || got[0] != "/m/1" {
		t.Errorf("EntitiesOfType: %v", got)
	}
	preds := o.PredicatesOfType("/people/person")
	if len(preds) != 2 {
		t.Fatalf("PredicatesOfType: %v", preds)
	}
	if preds[0].ID > preds[1].ID {
		t.Error("PredicatesOfType not sorted")
	}
}

func TestOntologyEntityTypesCopied(t *testing.T) {
	o := NewOntology()
	types := []TypeID{"/a/b"}
	o.AddType(Type{ID: "/a/b"})
	o.AddEntity(Entity{ID: "/m/x", Types: types})
	types[0] = "/mutated"
	if got := o.Entity("/m/x").Types[0]; got != "/a/b" {
		t.Errorf("ontology aliased caller slice: %v", got)
	}
}

func TestStoreAddDedupAndIndexes(t *testing.T) {
	s := NewStore()
	t1 := Triple{Subject: "/m/1", Predicate: "p", Object: StringObject("a")}
	t2 := Triple{Subject: "/m/1", Predicate: "p", Object: StringObject("b")}
	t3 := Triple{Subject: "/m/1", Predicate: "q", Object: NumberObject(2)}
	if !s.Add(t1) || !s.Add(t2) || !s.Add(t3) {
		t.Fatal("fresh Add returned false")
	}
	if s.Add(t1) {
		t.Error("duplicate Add returned true")
	}
	if s.Len() != 3 || s.NumItems() != 2 {
		t.Errorf("Len=%d NumItems=%d", s.Len(), s.NumItems())
	}
	if !s.Has(t1) || s.Has(Triple{Subject: "/m/1", Predicate: "p", Object: StringObject("z")}) {
		t.Error("Has wrong")
	}
	if !s.HasItem(t1.Item()) || s.HasItem(DataItem{Subject: "/m/9", Predicate: "p"}) {
		t.Error("HasItem wrong")
	}
	if got := s.Objects(t1.Item()); len(got) != 2 {
		t.Errorf("Objects: %v", got)
	}
	if got := s.PredicatesOf("/m/1"); len(got) != 2 {
		t.Errorf("PredicatesOf: %v", got)
	}
}

func TestStoreDeterministicIteration(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		s.Add(Triple{Subject: "/m/2", Predicate: "p", Object: StringObject("x")})
		s.Add(Triple{Subject: "/m/1", Predicate: "q", Object: NumberObject(5)})
		s.Add(Triple{Subject: "/m/1", Predicate: "p", Object: StringObject("y")})
		return s
	}
	a, b := build().Triples(), build().Triples()
	if len(a) != 3 {
		t.Fatalf("Triples len=%d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration not deterministic: %v vs %v", a, b)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Subject > a[i].Subject {
			t.Fatal("Triples not sorted by subject")
		}
	}
	var items []DataItem
	build().ForEachItem(func(d DataItem, objs []Object) { items = append(items, d) })
	if len(items) != 3 {
		t.Fatalf("ForEachItem visited %d items", len(items))
	}
}

func TestHierarchyChains(t *testing.T) {
	h := NewHierarchy()
	h.SetParent("/m/sf", "/m/ca")
	h.SetParent("/m/ca", "/m/usa")
	h.SetParent("/m/usa", "/m/na")

	anc := h.Ancestors("/m/sf")
	want := []EntityID{"/m/ca", "/m/usa", "/m/na"}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors = %v", anc)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Fatalf("Ancestors = %v, want %v", anc, want)
		}
	}
	if !h.IsAncestor("/m/usa", "/m/sf") || h.IsAncestor("/m/sf", "/m/usa") {
		t.Error("IsAncestor wrong")
	}
	if !h.Related("/m/sf", "/m/na") || !h.Related("/m/na", "/m/sf") || !h.Related("/m/sf", "/m/sf") {
		t.Error("Related should hold along chains and reflexively")
	}
	if h.Related("/m/sf", "/m/other") {
		t.Error("Related held for unrelated entities")
	}
	if n := len(h.Ancestors("/m/na")); n != 0 {
		t.Errorf("root has %d ancestors", n)
	}
	if h.Len() != 3 {
		t.Errorf("Len=%d", h.Len())
	}
}

func TestHierarchyCycleSafe(t *testing.T) {
	h := NewHierarchy()
	h.SetParent("a", "b")
	h.SetParent("b", "a") // malformed input must not hang
	if got := h.Ancestors("a"); len(got) != 1 || got[0] != "b" {
		t.Errorf("cycle Ancestors = %v", got)
	}
	if h.IsAncestor("zzz", "a") {
		t.Error("IsAncestor found absent ancestor in cycle")
	}
}

func TestObjectStringParseQuick(t *testing.T) {
	f := func(s string) bool {
		// Tab would break triple encoding but Object.String never emits tabs
		// from the tag; strings themselves may contain anything but tabs and
		// newlines in our corpora. Restrict the property accordingly.
		for _, r := range s {
			if r == '\t' || r == '\n' {
				return true
			}
		}
		o := StringObject(s)
		got, err := ParseObject(o.String())
		return err == nil && got == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldwiseHashStableAndEqual(t *testing.T) {
	d := DataItem{Subject: "/m/07r1h", Predicate: "/people/person/birth_date"}
	if d.Hash() != d.Hash() {
		t.Error("DataItem.Hash not stable")
	}
	tr := Triple{Subject: d.Subject, Predicate: d.Predicate, Object: NumberObject(1986)}
	if tr.Hash() != tr.Hash() {
		t.Error("Triple.Hash not stable")
	}
	same := Triple{Subject: "/m/07r1h", Predicate: "/people/person/birth_date", Object: NumberObject(1986)}
	if tr.Hash() != same.Hash() {
		t.Error("equal triples hash differently")
	}
}

// TestStringHashStable pins StringHash to FNV-1a's published test vectors:
// the engines' reservoir seeds are derived from it, so its values are part
// of the output contract.
func TestStringHashStable(t *testing.T) {
	for s, want := range map[string]uint64{
		"":    0xcbf29ce484222325,
		"a":   0xaf63dc4c8601ec8c,
		"abc": 0xe71fa2190541574b,
	} {
		if got := StringHash(s); got != want {
			t.Errorf("StringHash(%q) = %#x, want %#x", s, got, want)
		}
	}
	if StringHash("abc") == StringHash("abd") {
		t.Error("StringHash collides trivially")
	}
}

func TestFieldwiseHashFieldBoundaries(t *testing.T) {
	// Concatenation across the subject/predicate boundary must not collide.
	a := DataItem{Subject: "ab", Predicate: "c"}
	b := DataItem{Subject: "a", Predicate: "bc"}
	if a.Hash() == b.Hash() {
		t.Error("DataItem.Hash collides across field boundary")
	}
	// Object kind and numeric value must both matter.
	base := Triple{Subject: "s", Predicate: "p"}
	s := base
	s.Object = StringObject("1986")
	n := base
	n.Object = NumberObject(1986)
	if s.Hash() == n.Hash() {
		t.Error("Triple.Hash ignores object kind")
	}
	n2 := base
	n2.Object = NumberObject(1987)
	if n.Hash() == n2.Hash() {
		t.Error("Triple.Hash ignores numeric value")
	}
	// 0.0 and -0.0 compare equal as float64, so the objects are == and
	// must hash equal (a partitioning hash may never split one map key).
	pz, nz := NumberObject(0.0), NumberObject(math.Copysign(0, -1))
	if pz != nz {
		t.Fatal("0.0 and -0.0 objects should compare equal")
	}
	if pz.Hash() != nz.Hash() {
		t.Error("Object.Hash splits 0.0 and -0.0")
	}
}

func TestFieldwiseHashSpreads(t *testing.T) {
	// A weak sanity check that hashes of near-identical items differ: 1000
	// consecutive subjects should produce 1000 distinct hashes.
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		d := DataItem{Subject: EntityID("/m/e" + strconv.Itoa(i)), Predicate: "/p"}
		seen[d.Hash()] = true
	}
	if len(seen) != 1000 {
		t.Errorf("DataItem.Hash: %d distinct hashes for 1000 items", len(seen))
	}
}
