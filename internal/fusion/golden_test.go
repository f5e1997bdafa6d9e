package fusion

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/kb"
	"kfusion/internal/wire"
)

// goldenExtractions is a self-contained deterministic extraction stream (an
// LCG, so no dependence on math/rand's generator) arriving grouped by
// extractor in runs, as real feeds do: later records revisit earlier
// provenances and triples, and new provenances, items and candidates keep
// arriving along the feed.
func goldenExtractions(n int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	state := uint64(0xD1B54A32D192ED03)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := range xs {
		site := next(29)
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", next(n/4+5))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", next(3))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", next(3))),
			},
			Extractor:  fmt.Sprintf("X%d", (i/97)%(3+4*i/n)),
			Pattern:    fmt.Sprintf("pat%d", next(3)),
			URL:        fmt.Sprintf("http://site%d.example/page%d", site, next(1+i/60)),
			Site:       fmt.Sprintf("site%d.example", site),
			Confidence: float64(next(100)) / 100,
		}
	}
	return xs
}

// dumpGraph serializes every field of c — the primary columns a snapshot
// stores and everything the compile tail derives from them, the data items,
// the CSRs and the support counts — in the layout of the version-1 snapshot,
// which stored them all, less its extractor-confidence column. Two graphs are
// equal exactly when their dumps are.
func dumpGraph(t testing.TB, c *Compiled) []byte {
	t.Helper()
	g := c.g
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.U8(1)
	w.Int(c.gen)

	// Key tables.
	w.Strings(g.provKeys)
	w.Strings(g.extKeys)
	kb.EncodeTriples(w, g.triples)
	w.Int(len(g.items))
	for _, it := range g.items {
		w.String(string(it.Subject))
		w.String(string(it.Predicate))
	}

	// Per-claim columns.
	w.Int32s(g.extOfClaim)
	w.Int32s(g.provOfClaim)
	w.Int32s(g.tripleOfClaim)
	w.Int32s(g.localOfClaim)

	// Item and triple structure.
	w.Int32s(g.itemClaimStart)
	w.Int32s(g.itemClaims)
	w.Int32s(g.itemCandStart)
	w.Int32s(g.itemCands)
	w.Int32s(g.itemOfTriple)
	w.Int32s(g.localOfTriple)
	w.Int32s(g.tripleClaimStart)
	w.Int32s(g.tripleClaims)
	w.Int32s(g.tripleExtractors)

	// Provenance structure.
	w.Int32s(g.provClaimStart)
	w.Int32s(g.provClaims)

	w.Int(g.maxCandidates)
	if err := w.Err(); err != nil {
		t.Fatalf("dump: %v", err)
	}
	return buf.Bytes()
}

// snapshotDigest is the SHA-256 of c's dump (dumpGraph).
func snapshotDigest(t *testing.T, c *Compiled) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(dumpGraph(t, c)))
}

// TestGoldenGraphDigests pins the compiled claim graph — every ID table, CSR
// span, support count and the generation counter, as dumpGraph serialises
// them — to SHA-256 digests first recorded at commit 3ef8182, before Compile
// became the from-empty case of Append, when the snapshot itself stored every
// field; they were re-recorded at commit f189625 by hashing the dump without
// its confidence column while the graph still held one, so the graphs the
// column's deletion left are otherwise those graphs.
// The Append-vs-Compile suites compare two runs of one loop; this table is
// the independent oracle. The decoded case derives its graph on decode.
func TestGoldenGraphDigests(t *testing.T) {
	golden := map[string]string{
		"(Extractor, URL)/empty-w1":                              "7db92d4914a1836cc38987a661a7a0e52b11f0095d0f84abecfe9baca4ca6da0",
		"(Extractor, URL)/empty-w4-sharded":                      "0b114752842b4c2b1263d06f20bb3cd31992c79c3688e3d9671fbac21bda975a",
		"(Extractor, URL)/chain":                                 "3e5f5d6dbe58a47e439bc2955f6503dc89ebe36c8caa538da7052ecad75e6b01",
		"(Extractor, URL)/chain-w1":                              "3e5f5d6dbe58a47e439bc2955f6503dc89ebe36c8caa538da7052ecad75e6b01",
		"(Extractor, URL)/from-nil":                              "d8a296d798005b3bc3b35ae80e44d967a6af101af9558a5f5e369f3e002c5a37",
		"(Extractor, URL)/decoded":                               "e8e5a9730c30d18dfb68a73444b3c10d6d66358a41425916fde1d4e460d584d2",
		"(Extractor, URL)/consumed":                              "f22dcffb40ad86870be69d1b492a8e45000bab187c9099e8af331d16477facb0",
		"(Extractor, Site, Predicate, Pattern)/empty-w1":         "ce0ded4969f1c3ed4f9200d5f035689f5099b94351d5e4428f1efcda8c15590e",
		"(Extractor, Site, Predicate, Pattern)/empty-w4-sharded": "9b6f75cb15765152ed09ec7ed39a0af2c432a4634694bd6caa2c3a2860467994",
		"(Extractor, Site, Predicate, Pattern)/chain":            "191ad6cc6228b8c70e8fa342f89fd9dd08ae8441cc93bdeab1c67d11647d8309",
		"(Extractor, Site, Predicate, Pattern)/chain-w1":         "191ad6cc6228b8c70e8fa342f89fd9dd08ae8441cc93bdeab1c67d11647d8309",
		"(Extractor, Site, Predicate, Pattern)/from-nil":         "4aef6f14189ef9e8f7c50ef013f85b773d185f6b2a08cbabbe4916164a0fa0a1",
		"(Extractor, Site, Predicate, Pattern)/decoded":          "645009f1bc4880f7b8d6963c653f277dce887e5bb9bd21184a2169a870bdd62e",
		"(Extractor, Site, Predicate, Pattern)/consumed":         "80b7f55d925b4619c494732fcb47789a1118515ba6d8dd5583950f0affd394be",
	}

	for _, gran := range []Granularity{GranExtractorURL, GranExtractorSitePredPattern} {
		small := Claims(goldenExtractions(3000), gran)
		large := Claims(goldenExtractions(3*csr.ParallelThreshold), gran)
		big := csr.ParallelThreshold + 1234
		if len(large) < 900+1+big+700 {
			t.Fatalf("gran %v: only %d claims, the chain needs %d", gran, len(large), 900+1+big+700)
		}
		// 900 | empty | 1 | a batch that itself crosses the shard threshold | tail
		cuts := []int{900, 900, 901, 901 + big, len(large)}
		runChain := func(workers int) *Compiled {
			g, _ := CompileWorkers(large[:cuts[0]], workers, 0)
			for i := 1; i < len(cuts); i++ {
				g, _ = g.AppendWorkers(large[cuts[i-1]:cuts[i]], workers)
			}
			return g
		}
		cases := []struct {
			name  string
			build func() *Compiled
		}{
			{"empty-w1", func() *Compiled { g, _ := CompileWorkers(small, 1, 0); return g }},
			{"empty-w4-sharded", func() *Compiled { g, _ := CompileWorkers(large, 4, 0); return g }},
			{"chain", func() *Compiled { return runChain(4) }},
			{"chain-w1", func() *Compiled { return runChain(1) }},
			// An empty generation, then one append above the shard threshold.
			{"from-nil", func() *Compiled { g, _ := MustCompile(nil).AppendWorkers(large, 4); return g }},
			// Append onto a decoded snapshot: the index is rebuilt from the graph.
			{"decoded", func() *Compiled {
				var buf bytes.Buffer
				if err := MustCompile(small[:len(small)/2]).EncodeSnapshot(&buf); err != nil {
					t.Fatalf("encode: %v", err)
				}
				dec, err := DecodeSnapshot(buf.Bytes())
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				g, _ := dec.AppendWorkers(small[len(small)/2:], 2)
				return g
			}},
			// A second append on a generation whose index was already taken.
			{"consumed", func() *Compiled {
				half := len(small) / 2
				base := MustCompile(small[:half])
				base.MustAppend(small[half : half+100])
				return base.MustAppend(small[half:]).MustAppend(nil)
			}},
		}
		for _, c := range cases {
			name := fmt.Sprintf("%v/%s", gran, c.name)
			want, ok := golden[name]
			if !ok {
				t.Fatalf("%s: no golden digest", name)
			}
			if got := snapshotDigest(t, c.build()); got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
}
