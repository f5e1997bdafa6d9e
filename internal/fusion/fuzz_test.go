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
// ClaimStream dedups whole batches away. A feed longer than the bytes wraps
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

// FuzzAppendChunking is the metamorphic contract of the compile layer: any
// chunking of a feed through ClaimStream.Add and Append — zero-length
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

// FuzzClaimStream pins the ID-pair dedup stream to the map-keyed reference
// (claimStreamRef) on small colliding worlds under any chunking, empty
// batches included, and all six standard granularities: every Add returns the
// reference's claims for that batch, every claim of one provenance carries
// one string, a stream seeded from a graph compiled (and stored, and loaded)
// part-way continues exactly as the uninterrupted one, and the graph grown
// from the Add batches is, snapshot byte for snapshot byte, the graph of one
// Compile over Claims of the whole feed.
func FuzzClaimStream(f *testing.F) {
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
		seedAfter := int(mode) / len(grans) % len(lens) // batches before the reseed

		ref := &claimStreamRef{gran: gran, seen: map[provTriple]bool{}}
		stream := NewClaimStream(gran)
		var seeded *ClaimStream
		var g *Compiled
		canon := map[string]*byte{}
		at := 0
		for i, n := range lens {
			batch := xs[at : at+n]
			at += n
			want := ref.add(batch)
			got := stream.Add(batch)
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d: Add returned %d claims, the reference %d:\n got %v\nwant %v", i, len(got), len(want), got, want)
			}
			for _, c := range got {
				if p, ok := canon[c.Prov]; ok && p != unsafe.StringData(c.Prov) {
					t.Fatalf("batch %d: provenance %q arrives as a second string", i, c.Prov)
				}
				canon[c.Prov] = unsafe.StringData(c.Prov)
			}
			if seeded != nil {
				if again := seeded.Add(batch); len(again) != len(want) || len(want) > 0 && !reflect.DeepEqual(again, want) {
					t.Fatalf("batch %d: the seeded stream returned %d claims, the uninterrupted one %d", i, len(again), len(want))
				}
			}
			var err error
			if g == nil {
				g, err = CompileWorkers(got, 1, 0)
			} else {
				g, err = g.AppendWorkers(got, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			if i == seedAfter {
				var buf bytes.Buffer
				if err := g.EncodeSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeSnapshot(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				seeded = SeedClaimStream(gran, dec)
			}
		}
		if stream.NumClaims() != g.NumClaims() || seeded.NumClaims() != g.NumClaims() {
			t.Fatalf("NumClaims: stream %d, seeded %d, graph %d", stream.NumClaims(), seeded.NumClaims(), g.NumClaims())
		}

		whole := MustCompile(Claims(xs, gran))
		whole.gen = g.gen
		var a, b bytes.Buffer
		if err := g.EncodeSnapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := whole.EncodeSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("the graph grown from the Add batches is not the graph of Compile(Claims(feed))")
		}
	})
}
