package fusion

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

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
// which stored them all. Two graphs are equal exactly when their dumps are.
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
	w.F64s(g.confOfClaim)
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
// them — to SHA-256 digests recorded at commit 3ef8182, before Compile became
// the from-empty case of Append, when the snapshot itself stored every field.
// The Append-vs-Compile suites compare two runs of one loop; this table is
// the independent oracle. The decoded case derives its graph on decode.
func TestGoldenGraphDigests(t *testing.T) {
	golden := map[string]string{
		"(Extractor, URL)/empty-w1":                              "a5b0c0f087a71680ad0a42333abcfe30e56973bd3f6bac91eb20a1d8160d0f23",
		"(Extractor, URL)/empty-w4-sharded":                      "8a832c3be1277036e55f5ff74094a85861d85405aa34a246ec26b61f6602570b",
		"(Extractor, URL)/chain":                                 "d7fefbb8d6e2e059a60666d19e5a3f1d8f43b566ea63551c33528e5463b75b26",
		"(Extractor, URL)/chain-w1":                              "d7fefbb8d6e2e059a60666d19e5a3f1d8f43b566ea63551c33528e5463b75b26",
		"(Extractor, URL)/from-nil":                              "b4ff131a4226bae41e5bf8e09db3e1b04e49889bd19037826d2cfab50cab88d8",
		"(Extractor, URL)/decoded":                               "5e6f7ecaa0e6a7e0ff7870862018ad810fc80050c056533ed4dfabadcc6f6937",
		"(Extractor, URL)/consumed":                              "b86f163f94bb20b9472649dbad8953f5b116bddacedf97ca232864a6505852fe",
		"(Extractor, Site, Predicate, Pattern)/empty-w1":         "5a6d44a99939abcc6f444d841aac8c6761bfc36f57a5526aaa6a26a604f6ed1b",
		"(Extractor, Site, Predicate, Pattern)/empty-w4-sharded": "61e7941e1cf83f23b9c5fbfccc841d1becdb9b30bcd500c6ffc111829a6e7b30",
		"(Extractor, Site, Predicate, Pattern)/chain":            "b614683edfdddc3cd7be8b3cfa1d35dcd45fa15661521e69b177b792ea2f7654",
		"(Extractor, Site, Predicate, Pattern)/chain-w1":         "b614683edfdddc3cd7be8b3cfa1d35dcd45fa15661521e69b177b792ea2f7654",
		"(Extractor, Site, Predicate, Pattern)/from-nil":         "4b019a6a1f3749e8f27526c4008203579b5a2988449a41a8e27167e509e8a17b",
		"(Extractor, Site, Predicate, Pattern)/decoded":          "06fcfa4dabf7ac125ffcc8cc91aaf179e09207ce779b6e642def02d57e9dcb07",
		"(Extractor, Site, Predicate, Pattern)/consumed":         "04f2a5419dfde0bdf6c0403b4073d3c89058193d94050cdf57d8c632968596ee",
	}

	for _, gran := range []Granularity{GranExtractorURL, GranExtractorSitePredPattern} {
		small := Claims(goldenExtractions(3000), gran)
		large := Claims(goldenExtractions(3*internShardThreshold), gran)
		big := internShardThreshold + 1234
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
