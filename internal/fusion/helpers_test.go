package fusion

import (
	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// testExtraction returns a representative extraction for granularity tests.
func testExtraction() extract.Extraction {
	return extract.Extraction{
		Triple: kb.Triple{
			Subject:   "/m/07r1h",
			Predicate: "/people/person/birth_place",
			Object:    kb.EntityObject("/m/loc1"),
		},
		Extractor:  "TXT1",
		Pattern:    "tpl2|birth place",
		URL:        "http://wiki001.example.com/p3",
		Site:       "wiki001.example.com",
		Confidence: 0.8,
	}
}

// compile returns the graph and interning index of a fresh compilation, for
// tests that compare them field by field.
func compile(claims []Claim, workers int) (*graph, *claimIndex) {
	c, _ := CompileWorkers(claims, workers, 0)
	return c.g, c.idx
}

// claimsOf assembles every claim of c's graph, in claim-ID order.
func claimsOf(c *Compiled) []Claim {
	claims := make([]Claim, c.NumClaims())
	for i := range claims {
		claims[i] = c.g.claim(i)
	}
	return claims
}

// provTriple is the string-keyed (provenance, triple) dedup key of the
// reference flatten loop the tests compare the extraction entries against.
type provTriple struct {
	prov   string
	triple kb.Triple
}
