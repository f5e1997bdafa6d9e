package fusion

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// fuzzFeed turns fuzz bytes into a small extraction world: three bytes per
// record pick its triple, its page and its extractor from a handful of
// values, so provenances, items and candidates collide constantly and the
// feed's dedup drops whole batches. A feed longer than the bytes wraps
// around them, and every 64th wrap shifts the extractor choice, so later
// batches re-assert old triples under new provenances.
func fuzzFeed(world []byte, n int) []extract.Extraction {
	if len(world) < 3 {
		world = []byte{0, 0, 0}
	}
	xs := make([]extract.Extraction, n)
	for i := range xs {
		at := 3 * i % (len(world) - 2)
		a, b, c := world[at], world[at+1], world[at+2]
		lap := 3 * i / (len(world) - 2)
		site := int(b % 5)
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", a%16)),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", a>>4%3)),
				Object:    kb.StringObject(fmt.Sprintf("v%d", a>>6)),
			},
			Extractor:  fmt.Sprintf("X%d", (int(c%4)+lap/64)%7),
			Pattern:    fmt.Sprintf("pat%d", c>>2%2),
			URL:        fmt.Sprintf("http://site%d.example/page%d", site, b>>4),
			Site:       fmt.Sprintf("site%d.example", site),
			Confidence: float64(c) / 255,
		}
	}
	return xs
}

// fuzzBatches reads batch lengths (little-endian uint16 each, zero allowed)
// and returns them with the feed length, capped so one execution stays in
// the millisecond range.
func fuzzBatches(cuts []byte) (lens []int, total int) {
	const maxFeed = 4096
	for ; len(cuts) >= 2 && len(lens) < 16; cuts = cuts[2:] {
		n := int(binary.LittleEndian.Uint16(cuts))
		if total+n > maxFeed {
			n = maxFeed - total
		}
		lens = append(lens, n)
		total += n
	}
	return lens, total
}

func fuzzCuts(lens ...uint16) []byte {
	var out []byte
	for _, n := range lens {
		out = binary.LittleEndian.AppendUint16(out, n)
	}
	return out
}

// FuzzAppendChunking is the metamorphic contract of the claim compile path:
// any chunking of a feed through ClaimStream.Add and Append — zero-length
// batches and batches that dedup to nothing included — builds the graph one
// Compile of the whole feed's Claims builds, in every field but the
// generation counter, which counts the batches. A fork from a generation in
// the middle of the chain, by two other batches, equals its own recompile and
// leaves the chain as it was.
func FuzzAppendChunking(f *testing.F) {
	// The cuts of extract's TestExtractAppendChain: 1000 | 800 | 1 | 2189 | 10.
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), fuzzCuts(1000, 800, 1, 2189, 10), byte(1))
	f.Add([]byte{7, 1, 2, 200, 33, 9, 7, 1, 3, 90, 17, 0}, fuzzCuts(0, 5, 0, 0, 7, 1, 0), byte(0))
	f.Add([]byte{1, 2, 3}, fuzzCuts(0), byte(6))
	f.Fuzz(func(t *testing.T, world, cuts []byte, mode byte) {
		lens, total := fuzzBatches(cuts)
		if len(lens) == 0 {
			return
		}
		xs := fuzzFeed(world, total)
		gran, other := GranExtractorURL, GranExtractorSitePredPattern
		if mode&1 == 1 {
			gran, other = other, gran
		}
		workers := 1 + int(mode>>1%4)

		stream := NewClaimStream(gran)
		g, err := CompileWorkers(stream.Add(xs[:lens[0]]), workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		at := lens[0]
		mid, midAt := g, at // the generation the fork below leaves from
		for i, n := range lens[1:] {
			if g, err = g.AppendWorkers(stream.Add(xs[at:at+n]), workers); err != nil {
				t.Fatal(err)
			}
			at += n
			if i < len(lens)/2 {
				mid, midAt = g, at
			}
		}

		// Fork step: two more Appends leave from the middle generation, whose
		// index the chain has taken (unless it is the last) — other batches
		// than the chain's, re-flattened under the other granularity so they
		// bring new provenances onto old triples. The fork equals its
		// recompile, and the chain (checked below, after the fork) never
		// notices it.
		forkBatches := [][]Claim{Claims(xs[:total/3], other), Claims(xs[total/2:], other)}
		input := append([]Claim{}, mid.Claims()...)
		fork := mid
		for _, batch := range forkBatches {
			if fork, err = fork.AppendWorkers(batch, workers); err != nil {
				t.Fatal(err)
			}
			input = append(input, batch...)
			wantFork, _ := compile(input, workers)
			graphsEqual(t, "fork", fork.g, wantFork)
		}
		wantMid, _ := compile(Claims(xs[:midAt], gran), workers)
		graphsEqual(t, "forked-from generation", mid.g, wantMid)

		want, _ := compile(Claims(xs, gran), workers)
		graphsEqual(t, "chained", g.g, want)
		if g.Generation() != len(lens)-1 {
			t.Fatalf("generation = %d after %d batches", g.Generation(), len(lens))
		}
	})
}

// FuzzAppendExtractions pins the graph's own extraction dedup to the
// map-keyed reference (claimStreamRef) on small colliding worlds under any
// chunking, empty batches included, and all six standard granularities:
// every AppendExtractions generation adds exactly the reference's claims for
// its batch, every claim of one provenance carries one string, a chain
// continued from a generation stored and loaded part-way (whose pair set is
// rebuilt from the decoded claims) adds the same claims as the uninterrupted
// one, and the final graph is, snapshot byte for snapshot byte, the graph of
// one CompileExtractions over the whole feed. ClaimStream, the same loop
// without the graph, and SeedClaimStream from the loaded generation return
// the same claims.
func FuzzAppendExtractions(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), fuzzCuts(1000, 800, 1, 2189, 10), byte(1))
	f.Add([]byte{7, 1, 2, 200, 33, 9, 7, 1, 3, 90, 17, 0}, fuzzCuts(0, 5, 0, 0, 7, 1, 0), byte(14))
	f.Add([]byte{1, 2, 3}, fuzzCuts(0), byte(6))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 255, 255, 255}, fuzzCuts(3, 0, 300, 3), byte(29))
	f.Fuzz(func(t *testing.T, world, cuts []byte, mode byte) {
		lens, total := fuzzBatches(cuts)
		if len(lens) == 0 {
			return
		}
		xs := fuzzFeed(world, total)
		grans := []Granularity{
			GranExtractorURL, GranExtractorSite, GranExtractorSitePred,
			GranExtractorSitePredPattern, GranExtractorOnly, GranSourceOnly,
		}
		gran := grans[int(mode)%len(grans)]
		reloadAfter := int(mode) / len(grans) % len(lens) // batches before the reload

		ref := &claimStreamRef{gran: gran, seen: map[provTriple]bool{}}
		stream := NewClaimStream(gran)
		var g, reloaded *Compiled
		var seeded *ClaimStream
		canon := map[string]*byte{}
		same := func(got, want []Claim) bool {
			return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
		}
		// grow appends batch to c (compiling it when c is nil) and returns the
		// generation with the claims it added.
		grow := func(c *Compiled, batch []extract.Extraction) (*Compiled, []Claim) {
			if c == nil {
				c = CompileExtractions(batch, gran, 1)
				return c, c.Claims()
			}
			next, err := c.AppendExtractions(batch, gran)
			if err != nil {
				t.Fatal(err)
			}
			return next, next.Claims()[c.NumClaims():]
		}
		at := 0
		for i, n := range lens {
			batch := xs[at : at+n]
			at += n
			want := ref.add(batch)
			var got []Claim
			g, got = grow(g, batch)
			if !same(got, want) {
				t.Fatalf("batch %d: the generation added %d claims, the reference %d:\n got %v\nwant %v", i, len(got), len(want), got, want)
			}
			for _, c := range got {
				if p, ok := canon[c.Prov]; ok && p != unsafe.StringData(c.Prov) {
					t.Fatalf("batch %d: provenance %q arrives as a second string", i, c.Prov)
				}
				canon[c.Prov] = unsafe.StringData(c.Prov)
			}
			if again := stream.Add(batch); !same(again, want) {
				t.Fatalf("batch %d: the stream returned %d claims, the reference %d", i, len(again), len(want))
			}
			if reloaded != nil {
				var again []Claim
				if reloaded, again = grow(reloaded, batch); !same(again, want) {
					t.Fatalf("batch %d: the reloaded chain added %d claims, the uninterrupted one %d", i, len(again), len(want))
				}
				if again := seeded.Add(batch); !same(again, want) {
					t.Fatalf("batch %d: the seeded stream returned %d claims, the uninterrupted one %d", i, len(again), len(want))
				}
			}
			if i == reloadAfter {
				var buf bytes.Buffer
				if err := g.EncodeSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeSnapshot(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				reloaded, seeded = dec, SeedClaimStream(gran, dec)
			}
		}

		whole := CompileExtractions(xs, gran, 1)
		whole.gen = g.gen
		for name, c := range map[string]*Compiled{"chain": g, "reloaded chain": reloaded} {
			var a, b bytes.Buffer
			if err := c.EncodeSnapshot(&a); err != nil {
				t.Fatal(err)
			}
			if err := whole.EncodeSnapshot(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("the %s's graph is not the graph of CompileExtractions(feed)", name)
			}
		}
		if !same(whole.Claims(), claimsRef(xs, gran)) {
			t.Fatal("CompileExtractions' claims are not the reference's")
		}
	})
}
