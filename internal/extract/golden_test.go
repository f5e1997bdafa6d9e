package extract

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"kfusion/internal/kb"
	"kfusion/internal/wire"
)

// goldenStream is a self-contained deterministic extraction stream (an LCG,
// so no dependence on math/rand's generator): later records revisit earlier
// sources and triples, the extractor fleet grows along the feed, and new
// sources, items and triples keep arriving — every case the compile and
// append paths distinguish.
func goldenStream(n int) []Extraction {
	xs := make([]Extraction, n)
	state := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := range xs {
		site := next(23)
		nExt := 3 + 4*i/n
		xs[i] = Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", next(n/5+7))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", next(3))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", next(4))),
			},
			Extractor:  fmt.Sprintf("X%d", next(nExt)),
			Pattern:    fmt.Sprintf("pat%d", next(2)),
			URL:        fmt.Sprintf("http://site%d.example/page%d", site, next(1+i/40)),
			Site:       fmt.Sprintf("site%d.example", site),
			Confidence: -1,
		}
	}
	return xs
}

// dumpGraph serializes every field of g — the primary columns a snapshot
// stores and everything the compile tail derives from them, the items, the
// CSRs, the support counts and the ext→statement incidence with its hit flags
// — in the layout of the version-1 snapshot, which stored them all (extBlocks,
// a function of extStStart, excepted). Two graphs are equal exactly when their
// dumps are.
func dumpGraph(t testing.TB, g *Compiled) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.U8(1)
	w.Int(g.gen)
	w.Bool(g.siteLevel)

	w.Strings(g.sources)
	w.Strings(g.extractors)
	kb.EncodeTriples(w, g.triples)
	w.Int(len(g.items))
	for _, it := range g.items {
		w.String(string(it.Subject))
		w.String(string(it.Predicate))
	}

	w.Int32s(g.stSource)
	w.Int32s(g.stTriple)
	w.Int32s(g.stExtStart)
	w.Int32s(g.stExts)

	w.Int32s(g.srcExtStart)
	w.Int32s(g.srcExts)
	w.Int32s(g.srcStStart)
	w.Int32s(g.srcSts)

	w.Int32s(g.tripleStStart)
	w.Int32s(g.tripleSts)
	w.Int32s(g.tripleExts)
	w.Int32s(g.itemOfTriple)
	w.Int32s(g.itemTripleStart)
	w.Int32s(g.itemTriples)
	w.Int32s(g.itemStatements)

	w.Int32s(g.extStStart)
	w.Int32s(g.extSts)
	hits := make([]bool, len(g.extHitsF)) // the flags go out one byte each
	for i, h := range g.extHitsF {
		hits[i] = h == 1
	}
	w.Bools(hits)

	w.Int(g.maxItemTriples)
	if err := w.Err(); err != nil {
		t.Fatalf("dump: %v", err)
	}
	return buf.Bytes()
}

// snapshotDigest is the SHA-256 of g's dump (dumpGraph).
func snapshotDigest(t *testing.T, g *Compiled) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(dumpGraph(t, g)))
}

// TestGoldenGraphDigests pins the compiled extraction graph — every ID table,
// CSR span, incidence row and the generation counter, as dumpGraph serialises
// them — to SHA-256 digests recorded at commit 3ef8182, before Compile became
// the from-empty case of Append, when the snapshot itself stored every field.
// The Append-vs-Compile suites compare two runs of one loop; this table and
// TestCompiledGraphMatchesBruteForce are the independent oracle. The decoded
// case derives its graph on decode.
func TestGoldenGraphDigests(t *testing.T) {
	big := internShardThreshold + 4321
	small := goldenStream(3000)
	large := goldenStream(big)
	// 900 | empty | 1 | a batch that itself crosses the shard threshold | tail
	chain := goldenStream(900 + 1 + big + 700)
	cuts := []int{900, 900, 901, 901 + big, len(chain)}

	golden := map[string]string{
		"site=false/empty-w1":         "74ea7ecb0734f0968028d75a56786d85b100a16b4b13dc8b670c23cee85b7165",
		"site=false/empty-w4-sharded": "0330ded413ed002c0e114f12be53a2c2088a989d11b599d4a7591636e84c3172",
		"site=false/chain":            "b451ced6b9e51a48ca2a3f5ba9ed2a0b568e116c62a6d59aab568411ac0dbbdf",
		"site=false/chain-w1":         "b451ced6b9e51a48ca2a3f5ba9ed2a0b568e116c62a6d59aab568411ac0dbbdf",
		"site=false/from-nil":         "d09b5913270bb0a478088d1e7d9098ff10385bd5098603114eebd7e782bc5b13",
		"site=false/decoded":          "4526f1bf91b8601908cd96ed4bd3fc086caae3d11124ea5cbab92993b46da240",
		"site=false/consumed":         "2124d157f54abd1d1b7467e052ddb55bd6d2ca2d1eb3902ab100418c79b3fbf8",
		"site=true/empty-w1":          "915aa968e520e36d8e4567bc14b71e9785d0d99d31dbe12b4ccf7acafe867725",
		"site=true/empty-w4-sharded":  "ab4a03d2d87bdb4b42a6469ba332b11752be408191d522494bb38285e6978ee0",
		"site=true/chain":             "790e827807d492de0eff1ca644ea7b666c7dd922824f624f66b2ce02413de5e8",
		"site=true/chain-w1":          "790e827807d492de0eff1ca644ea7b666c7dd922824f624f66b2ce02413de5e8",
		"site=true/from-nil":          "cd4aef09e4dcc49efe3eb6253c64e72c110306f4b2f71efaed95d5d3479a40fc",
		"site=true/decoded":           "08a489cf17237eee295c60eb5d737ab350595d839bb6a9b16081e92e8c0e8225",
		"site=true/consumed":          "16d2d486e33c42c7b27e84ed00ca65085fed14ce0f63b204b1ef2fba2b51f4f3",
	}

	runChain := func(siteLevel bool, workers int) *Compiled {
		g := CompileWorkers(chain[:cuts[0]], siteLevel, workers)
		for i := 1; i < len(cuts); i++ {
			g = g.AppendWorkers(chain[cuts[i-1]:cuts[i]], workers)
		}
		return g
	}

	for _, siteLevel := range []bool{false, true} {
		cases := []struct {
			name  string
			build func() *Compiled
		}{
			{"empty-w1", func() *Compiled { return CompileWorkers(small, siteLevel, 1) }},
			{"empty-w4-sharded", func() *Compiled { return CompileWorkers(large, siteLevel, 4) }},
			{"chain", func() *Compiled { return runChain(siteLevel, 4) }},
			{"chain-w1", func() *Compiled { return runChain(siteLevel, 1) }},
			// An empty generation, then one append above the shard threshold.
			{"from-nil", func() *Compiled { return CompileWorkers(nil, siteLevel, 4).AppendWorkers(large, 4) }},
			// Append onto a decoded snapshot: the index is rebuilt from the graph.
			{"decoded", func() *Compiled {
				var buf bytes.Buffer
				if err := CompileWorkers(small[:2000], siteLevel, 1).EncodeSnapshot(&buf); err != nil {
					t.Fatalf("encode: %v", err)
				}
				dec, err := DecodeSnapshot(buf.Bytes())
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				return dec.AppendWorkers(small[2000:], 2)
			}},
			// A second append on a generation whose index was already taken.
			{"consumed", func() *Compiled {
				base := CompileWorkers(small[:1500], siteLevel, 2)
				base.AppendWorkers(small[1500:1600], 2)
				return base.AppendWorkers(small[1500:], 2).AppendWorkers(nil, 2)
			}},
		}
		for _, c := range cases {
			name := fmt.Sprintf("site=%v/%s", siteLevel, c.name)
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
