package multitruth

import (
	"math"
	"testing"

	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

func cl(subj, pred, obj, prov string) fusion.Claim {
	return fusion.Claim{
		Triple: kb.Triple{Subject: kb.EntityID(subj), Predicate: kb.PredicateID(pred), Object: kb.StringObject(obj)},
		Prov:   prov,
	}
}

func probOf(t *testing.T, res *fusion.Result, subj, obj string) float64 {
	t.Helper()
	for _, f := range res.Triples {
		if f.Triple.Subject == kb.EntityID(subj) && f.Triple.Object.Str == obj {
			return f.Probability
		}
	}
	t.Fatalf("triple (%s, %s) missing", subj, obj)
	return 0
}

func TestValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Rounds = 0
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted Rounds=0")
	}
	bad = DefaultConfig()
	bad.PriorTrue = 1
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted PriorTrue=1")
	}
	bad = DefaultConfig()
	bad.InitSens = 0
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted InitSens=0")
	}
	bad = DefaultConfig()
	bad.Smoothing = -1
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted Smoothing=-1")
	}
	// NaN fails every comparison, so each range check must be written to
	// reject it.
	nan := math.NaN()
	for _, f := range []struct {
		name string
		set  func(*Config)
	}{
		{"PriorTrue", func(c *Config) { c.PriorTrue = nan }},
		{"InitSens", func(c *Config) { c.InitSens = nan }},
		{"InitSpec", func(c *Config) { c.InitSpec = nan }},
		{"Smoothing", func(c *Config) { c.Smoothing = nan }},
	} {
		bad = DefaultConfig()
		f.set(&bad)
		if _, err := Fuse(nil, bad); err == nil {
			t.Errorf("accepted %s=NaN", f.name)
		}
	}
}

func TestMultipleTruthsBothHigh(t *testing.T) {
	// Two true children claimed by disjoint-but-reliable provenance sets:
	// single-truth fusion must split the mass; the latent truth model can
	// believe both.
	var claims []fusion.Claim
	for _, p := range []string{"a1", "a2", "a3"} {
		claims = append(claims, cl("person", "/people/person/children", "Alice", p))
	}
	for _, p := range []string{"b1", "b2", "b3"} {
		claims = append(claims, cl("person", "/people/person/children", "Bob", p))
	}
	// Anchor all provenances as reliable on uncontested items.
	for _, p := range []string{"a1", "a2", "a3", "b1", "b2", "b3"} {
		claims = append(claims, cl("anchor-"+p, "/x/p", "v", p))
	}

	ltm := MustFuse(claims, DefaultConfig())
	alice, bob := probOf(t, ltm, "person", "Alice"), probOf(t, ltm, "person", "Bob")
	if alice < 0.6 || bob < 0.6 {
		t.Errorf("LTM: both truths should score high: Alice=%.3f Bob=%.3f", alice, bob)
	}

	single := fusion.MustFuse(claims, fusion.PopAccuConfig())
	sAlice, sBob := probOf(t, single, "person", "Alice"), probOf(t, single, "person", "Bob")
	if sAlice+sBob > 1.01 {
		t.Fatalf("single-truth probabilities exceed 1: %.3f + %.3f", sAlice, sBob)
	}
	if alice+bob <= sAlice+sBob {
		t.Errorf("LTM total mass %.3f not above single-truth %.3f", alice+bob, sAlice+sBob)
	}
}

func TestUnreliableMinorityRejected(t *testing.T) {
	var claims []fusion.Claim
	// Reliable provenances claim v on many items; "junk" claims unique
	// garbage everywhere, including on the contested item.
	for i := 0; i < 5; i++ {
		item := string(rune('a' + i))
		claims = append(claims,
			cl(item, "/x/p", "v-"+item, "g1"),
			cl(item, "/x/p", "v-"+item, "g2"),
			cl(item, "/x/p", "junk-"+item, "junk"),
		)
	}
	claims = append(claims,
		cl("target", "/x/p", "right", "g1"),
		cl("target", "/x/p", "right", "g2"),
		cl("target", "/x/p", "wrong", "junk"),
	)
	res := MustFuse(claims, DefaultConfig())
	if pr, pw := probOf(t, res, "target", "right"), probOf(t, res, "target", "wrong"); pr <= pw {
		t.Errorf("LTM failed to prefer reliable sources: right=%.3f wrong=%.3f", pr, pw)
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	claims := []fusion.Claim{
		cl("s", "p", "a", "p1"), cl("s", "p", "b", "p2"), cl("s", "p", "a", "p3"),
		cl("t", "p", "c", "p1"),
	}
	res := MustFuse(claims, DefaultConfig())
	if len(res.Triples) != 3 {
		t.Fatalf("triples = %d, want 3 (s-a, s-b, t-c)", len(res.Triples))
	}
	for _, f := range res.Triples {
		if !f.Predicted || f.Probability < 0 || f.Probability > 1 {
			t.Errorf("bad probability: %+v", f)
		}
	}
}

// TestFuseCompiledSharesGraph pins that the latent truth model over a
// shared, already-used compilation matches the compile-then-fuse path
// exactly — the LTM leaks no state into the graph either.
func TestFuseCompiledSharesGraph(t *testing.T) {
	claims := []fusion.Claim{
		cl("s", "p", "a", "p1"), cl("s", "p", "b", "p2"), cl("s", "p", "a", "p3"),
		cl("t", "p", "c", "p1"),
	}
	compiled := fusion.MustCompile(claims)
	compiled.MustFuse(fusion.PopAccuConfig()) // share with a single-truth run first
	a := MustFuseCompiled(compiled, DefaultConfig())
	b := MustFuse(claims, DefaultConfig())
	am, bm := a.ByTriple(), b.ByTriple()
	if len(am) != len(bm) {
		t.Fatalf("%d triples via shared graph, want %d", len(am), len(bm))
	}
	for tr, fa := range am {
		if fa != bm[tr] {
			t.Fatalf("shared-graph result differs at %v: %+v vs %+v", tr, fa, bm[tr])
		}
	}
}

func TestDeterministic(t *testing.T) {
	claims := []fusion.Claim{
		cl("s", "p", "a", "p1"), cl("s", "p", "b", "p2"), cl("s", "p", "a", "p3"),
	}
	a, b := MustFuse(claims, DefaultConfig()), MustFuse(claims, DefaultConfig())
	am, bm := a.ByTriple(), b.ByTriple()
	for tr, fa := range am {
		if fa != bm[tr] {
			t.Fatalf("nondeterministic: %v", tr)
		}
	}
}

func TestSensitivityLearning(t *testing.T) {
	var claims []fusion.Claim
	// "thorough" claims every value the crowd supports; "lazy" claims few.
	for i := 0; i < 6; i++ {
		item := string(rune('a' + i))
		claims = append(claims,
			cl(item, "/x/p", "v", "thorough"),
			cl(item, "/x/p", "v", "w1"),
			cl(item, "/x/p", "v", "w2"),
		)
	}
	claims = append(claims, cl("a", "/x/p", "v2", "lazy")) // lone dissent
	res := MustFuse(claims, DefaultConfig())
	if res.ProvAccuracy["thorough"] <= res.ProvAccuracy["lazy"] {
		t.Errorf("sensitivity(thorough)=%.3f <= sensitivity(lazy)=%.3f",
			res.ProvAccuracy["thorough"], res.ProvAccuracy["lazy"])
	}
}
