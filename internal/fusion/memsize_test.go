package fusion

import (
	"fmt"
	"testing"

	"kfusion/internal/kb"
)

// TestApproxBytes pins the accounting walk: deterministic, growing with the
// corpus, and 28 bytes per claim once the keys stop growing.
func TestApproxBytes(t *testing.T) {
	mk := func(n int) *Compiled {
		claims := make([]Claim, n)
		for i := range claims {
			claims[i] = Claim{
				Triple: kb.Triple{
					Subject:   kb.EntityID(fmt.Sprintf("s%d", i%50)),
					Predicate: "/p/x",
					Object:    kb.StringObject(fmt.Sprintf("v%d", i%7)),
				},
				Prov: fmt.Sprintf("E%d|url%d", i%5, i%90),
			}
		}
		return MustCompile(claims)
	}
	small, big := mk(200), mk(2000)
	a, b := small.ApproxBytes(), big.ApproxBytes()
	if a <= 0 || b <= 0 {
		t.Fatalf("non-positive sizes: %d, %d", a, b)
	}
	if b <= a {
		t.Fatalf("10x corpus not larger: %d vs %d", a, b)
	}
	if got := small.ApproxBytes(); got != a {
		t.Fatalf("not deterministic: %d then %d", a, got)
	}
	// From 350 claims on every key repeats, so more claims add only their
	// rows: 4 bytes in each of the seven claim-indexed int32 columns (claim ->
	// triple, candidate offset, provenance and extractor, and the item,
	// triple and provenance claim lists).
	if got := mk(1400).ApproxBytes() - mk(700).ApproxBytes(); got != 28*700 {
		t.Fatalf("700 more claims over the same keys count %d bytes, want %d", got, 28*700)
	}
}
