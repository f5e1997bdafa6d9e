package extract

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"kfusion/internal/kb"
)

// fuzzFeed turns fuzz bytes into a small extraction world: three bytes per
// record pick its triple, its source and its extractor from a handful of
// values, so statements, sources and extractor lists collide constantly. A
// feed longer than the bytes wraps around them, and every 64th wrap shifts
// the extractor choice — later batches then add new extractors to old sources
// and old statements, the cases that re-shape the graph the most.
func fuzzFeed(world []byte, n int) []Extraction {
	if len(world) < 3 {
		world = []byte{0, 0, 0}
	}
	xs := make([]Extraction, n)
	for i := range xs {
		at := 3 * i % (len(world) - 2)
		a, b, c := world[at], world[at+1], world[at+2]
		lap := 3 * i / (len(world) - 2)
		site := int(b % 5)
		xs[i] = Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", a%16)),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", a>>4%3)),
				Object:    kb.StringObject(fmt.Sprintf("v%d", a>>6)),
			},
			Extractor:  fmt.Sprintf("X%d", (int(c%4)+lap/64)%7),
			Pattern:    fmt.Sprintf("pat%d", c>>2%2),
			URL:        fmt.Sprintf("http://site%d.example/page%d", site, b>>4),
			Site:       fmt.Sprintf("site%d.example", site),
			Confidence: -1,
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
// chunking of a feed through Append — zero-length batches included — builds
// the graph one Compile of the whole feed builds, in every field but the
// generation counter, which counts the batches. A fork from a generation in
// the middle of the chain, by two other batches, equals its own recompile and
// leaves the chain as it was.
func FuzzAppendChunking(f *testing.F) {
	// The cuts of TestExtractAppendChain: 1000 | 800 | 1 | 2189 | 10.
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), fuzzCuts(1000, 800, 1, 2189, 10), byte(1))
	f.Add([]byte{7, 1, 2, 200, 33, 9, 7, 1, 3, 90, 17, 0}, fuzzCuts(0, 5, 0, 0, 7, 1, 0), byte(0))
	f.Add([]byte{1, 2, 3}, fuzzCuts(0), byte(6))
	f.Fuzz(func(t *testing.T, world, cuts []byte, mode byte) {
		lens, total := fuzzBatches(cuts)
		if len(lens) == 0 {
			return
		}
		xs := fuzzFeed(world, total)
		siteLevel := mode&1 == 1
		workers := 1 + int(mode>>1%4)

		g := CompileWorkers(xs[:lens[0]], siteLevel, workers)
		at := lens[0]
		mid, midAt := g, at // the generation the fork below leaves from
		for i, n := range lens[1:] {
			g = g.AppendWorkers(xs[at:at+n], workers)
			at += n
			if i < len(lens)/2 {
				mid, midAt = g, at
			}
		}

		// Fork step: two more Appends leave from the middle generation, whose
		// index the chain has taken (unless it is the last), with other
		// batches than the chain's — the feed's head again (old statements,
		// re-asserted) and its tail reversed (new ones, in another order).
		// The fork equals its recompile, and the chain (checked below, after
		// the fork) never notices it.
		tail := slices.Clone(xs[total/2:])
		slices.Reverse(tail)
		input := slices.Clone(xs[:midAt])
		fork := mid
		for _, batch := range [][]Extraction{xs[:total/3], tail} {
			fork = fork.AppendWorkers(batch, workers)
			input = append(input, batch...)
			appendGraphsEqual(t, "fork", fork, CompileWorkers(input, siteLevel, workers))
		}
		appendGraphsEqual(t, "forked-from generation", mid, CompileWorkers(xs[:midAt], siteLevel, workers))

		appendGraphsEqual(t, "chained", g, CompileWorkers(xs, siteLevel, workers))
		if g.Generation() != len(lens)-1 {
			t.Fatalf("generation = %d after %d batches", g.Generation(), len(lens))
		}
	})
}
