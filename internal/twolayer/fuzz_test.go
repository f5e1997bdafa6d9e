package twolayer

import (
	"fmt"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// fuzzWorld turns fuzz bytes into a small extraction world: three bytes per
// record pick its triple, its page and its extractor from a handful of
// values, so statements, sources and extractor lists collide constantly. A
// feed longer than the bytes wraps around them, and every 16th wrap shifts
// the extractor choice, so later batches pair old pages with extractors new
// to them.
func fuzzWorld(world []byte, n int) []extract.Extraction {
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
			Extractor:  fmt.Sprintf("X%d", (int(c%4)+lap/16)%7),
			URL:        fmt.Sprintf("http://site%d.example/page%d", site, b>>4),
			Site:       fmt.Sprintf("site%d.example", site),
			Confidence: -1,
		}
	}
	return xs
}

// FuzzWarmChain is the metamorphic contract of the warm chain: however a
// feed is cut into batches (empty ones included) and whatever round budget
// each warm step gets, a chain that hands its States on as they are —
// engines recycled, first E-steps revised — produces, bit for bit, what a
// chain seeded only through the State codec produces on fresh engines. In the
// middle of the chain a fork takes the live State's engines first, so the
// chain's own next step finds none, and the fork's engines are then tried on
// the chain's next graph, a sibling of the one they ran on.
func FuzzWarmChain(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte{200, 90, 1, 0, 255, 10, 33}, byte(0))
	f.Add([]byte{7, 1, 2, 200, 33, 9, 7, 1, 3, 90, 17, 0}, []byte{0, 5, 0, 0, 7, 1, 0, 64}, byte(13))
	f.Add([]byte{1, 2, 3}, []byte{3, 0, 3}, byte(6))
	f.Fuzz(func(t *testing.T, world, cuts []byte, mode byte) {
		if len(cuts) == 0 {
			return
		}
		if len(cuts) > 12 {
			cuts = cuts[:12]
		}
		total := 0
		for _, c := range cuts {
			total += int(c)
		}
		xs := fuzzWorld(world, total+64)
		cold := DefaultConfig()
		cold.SiteLevel = mode&1 == 1
		cold.Workers = 1 + int(mode>>1%3)

		at := int(cuts[0])
		g := extract.CompileWorkers(xs[:at], cold.SiteLevel, cold.Workers)
		_, carried := fuseOne(t, g, cold, nil)
		fresh := carried
		for i, c := range cuts[1:] {
			cfg := cold
			cfg.Rounds = 1 + int(c)%3
			next := g.Append(xs[at : at+int(c)])
			at += int(c)
			seed := viaCodec(t, fresh)
			if i == len(cuts)/2 {
				side := g.Append(xs[total : total+64])
				sidePost, sideSt := fuseOne(t, side, cfg, carried)
				wantPost, wantSt := fuseOne(t, side, cfg, seed)
				requireSameBits(t, "fork", sidePost, wantPost, sideSt, wantSt)
				crossPost, crossSt := fuseOne(t, next, cfg, sideSt)
				wantPost, wantSt = fuseOne(t, next, cfg, viaCodec(t, sideSt))
				requireSameBits(t, "fork's engines on the chain's graph", crossPost, wantPost, crossSt, wantSt)
			}
			cp, cs := fuseOne(t, next, cfg, carried)
			fp, fs := fuseOne(t, next, cfg, seed)
			requireSameBits(t, fmt.Sprintf("step %d", i), cp, fp, cs, fs)
			g, carried, fresh = next, cs, fs
		}
	})
}
