package fusion

import (
	"testing"
)

// TestCompileGraphInvariants checks the structural invariants the engine
// relies on: CSR spans tile their ID spaces, per-item claim order preserves
// claim-index order, and every interning round-trips to the original claim.
func TestCompileGraphInvariants(t *testing.T) {
	claims := randomClaims(1234, 300)
	g, _ := compile(claims, 0)

	n := len(claims)
	if len(g.itemClaims) != n || len(g.provClaims) != n || len(g.tripleClaims) != n {
		t.Fatalf("CSR leaf arrays must cover all %d claims", n)
	}
	if got := int(g.itemClaimStart[len(g.items)]); got != n {
		t.Fatalf("itemClaimStart tiles %d claims, want %d", got, n)
	}
	if got := int(g.itemCandStart[len(g.items)]); got != len(g.triples) {
		t.Fatalf("itemCandStart tiles %d triples, want %d", got, len(g.triples))
	}

	// Per-item claims keep ascending claim-index order (the reservoir
	// stream order), and every claim's interned fields match the original.
	for item := range g.items {
		span := g.itemClaims[g.itemClaimStart[item]:g.itemClaimStart[item+1]]
		for k, c := range span {
			if k > 0 && span[k-1] >= c {
				t.Fatalf("item %d: claim order not ascending: %v", item, span)
			}
			if claims[c].Triple.Item() != g.items[item] {
				t.Fatalf("claim %d grouped under wrong item", c)
			}
		}
	}
	for i := range claims {
		tid := g.tripleOfClaim[i]
		if g.triples[tid] != claims[i].Triple {
			t.Fatalf("claim %d: interned triple mismatch", i)
		}
		if g.provKeys[g.provOfClaim[i]] != claims[i].Prov {
			t.Fatalf("claim %d: interned provenance mismatch", i)
		}
		item := g.itemOfTriple[tid]
		if g.itemCands[g.itemCandStart[item]+g.localOfClaim[i]] != tid {
			t.Fatalf("claim %d: local candidate offset inconsistent", i)
		}
	}
	// Triple IDs are global first-occurrence order: within every item's
	// candidate span they ascend, and localOfTriple indexes into the span.
	for item := range g.items {
		span := g.itemCands[g.itemCandStart[item]:g.itemCandStart[item+1]]
		for k, tid := range span {
			if k > 0 && span[k-1] >= tid {
				t.Fatalf("item %d: candidate IDs not ascending: %v", item, span)
			}
			if g.localOfTriple[tid] != int32(k) {
				t.Fatalf("triple %d: localOfTriple = %d, want %d", tid, g.localOfTriple[tid], k)
			}
		}
	}

	// Triple spans group exactly the claims asserting that triple.
	for tid := range g.triples {
		for _, c := range g.tripleClaims[g.tripleClaimStart[tid]:g.tripleClaimStart[tid+1]] {
			if claims[c].Triple != g.triples[tid] {
				t.Fatalf("triple %d: foreign claim %d in span", tid, c)
			}
		}
	}

	// The dedup must agree with a naive recount.
	distinct := map[string]bool{}
	for i := range claims {
		distinct[claims[i].Triple.Encode()] = true
	}
	if len(g.triples) != len(distinct) {
		t.Fatalf("%d interned triples, want %d", len(g.triples), len(distinct))
	}
}

// TestCompileManyValuedItem exercises candidate dedup on an item with many
// distinct values (one global triple interning pass, no per-item maps).
func TestCompileManyValuedItem(t *testing.T) {
	var claims []Claim
	for i := 0; i < 100; i++ {
		v := string(rune('a'+i%50)) + string(rune('a'+i/50))
		claims = append(claims, cl("s", "p", v, "prov"+v))
	}
	g, _ := compile(claims, 0)
	if len(g.items) != 1 {
		t.Fatalf("%d items, want 1", len(g.items))
	}
	if len(g.triples) != 100 {
		t.Fatalf("%d candidates, want 100", len(g.triples))
	}
	res := MustFuse(claims, VoteConfig())
	want, err := FuseReference(claims, VoteConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "manyvalued", res, want)
}
