package twolayer

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
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

// shardWorld extends a K-graph feed as FuseLockstep takes it by xs: each
// extraction goes to the graph of its data item (a hash of subject and
// predicate), the graphs are compiled (nil) or appended to, the cross-shard
// tables (nil tables: new ones) extended in shard order, and the ghost sets
// derived from the graphs by definition: a local source's ghosts are,
// ascending, the global extractors that processed the source in some shard
// but not in this one.
func shardWorld(graphs []*extract.Compiled, ids *Shards, xs []extract.Extraction, siteLevel bool) ([]*extract.Compiled, *Shards) {
	k := len(graphs)
	if ids == nil {
		ids = &Shards{Sources: csr.NewIDTable(k), Extractors: csr.NewIDTable(k)}
	}
	ids = &Shards{Sources: ids.Sources, Extractors: ids.Extractors, Ghosts: make([][][]int32, k)}
	parts := make([][]extract.Extraction, k)
	for _, x := range xs {
		h := fnv.New32a()
		h.Write([]byte(string(x.Triple.Subject) + "\x00" + string(x.Triple.Predicate)))
		s := int(h.Sum32() % uint32(k))
		parts[s] = append(parts[s], x)
	}
	next := make([]*extract.Compiled, k)
	for s := range graphs {
		if graphs[s] == nil {
			next[s] = extract.CompileWorkers(parts[s], siteLevel, 1)
		} else {
			next[s] = graphs[s].AppendWorkers(parts[s], 1)
		}
		g := next[s]
		ids.Sources.Extend(s, g.NumSources(), g.SourceKey)
		ids.Extractors.Extend(s, g.NumExtractors(), g.ExtractorName)
	}
	union := make([]map[int32]bool, ids.Sources.N())
	for s, g := range next {
		for ls := range g.NumSources() {
			gs := ids.Sources.Global(s, ls)
			if union[gs] == nil {
				union[gs] = map[int32]bool{}
			}
			for _, lx := range g.SourceExtractors(int32(ls)) {
				union[gs][ids.Extractors.Global(s, int(lx))] = true
			}
		}
	}
	for s, g := range next {
		ids.Ghosts[s] = make([][]int32, g.NumSources())
		for ls := range g.NumSources() {
			local := map[int32]bool{}
			for _, lx := range g.SourceExtractors(int32(ls)) {
				local[ids.Extractors.Global(s, int(lx))] = true
			}
			var ghost []int32
			for gx := range union[ids.Sources.Global(s, ls)] {
				if !local[gx] {
					ghost = append(ghost, gx)
				}
			}
			slices.Sort(ghost)
			ids.Ghosts[s][ls] = ghost
		}
	}
	return next, ids
}

// FuzzTwoLayerEngine is the differential and metamorphic contract of the
// compiled two-layer engine on generated feeds (fuzzWorld: sources, extractor
// lists and the same extractor sets in different orders collide constantly),
// with the layer-1 oracle (CheckLayer1) watching every E-step:
//
//   - the compiled engine equals FuseReference within RefTol;
//   - Workers 1, 3 and 8 give the same bits — cold, along a warm chain whose
//     last step revises a carried E-step, and over three shard graphs, where
//     the ghost corrections make sources with equal local lists differ;
//   - all of it again with the memo bound forced below classes × hit lists,
//     so the inline path and the class pass's early stop run.
func FuzzTwoLayerEngine(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(300), byte(0), byte(3))
	f.Add([]byte{7, 1, 2, 200, 33, 9, 7, 1, 3, 90, 17, 0, 5, 64, 2, 5, 64, 3}, uint16(180), byte(5), byte(1))
	f.Add([]byte{1, 2, 3}, uint16(40), byte(2), byte(0))
	// Eight records, repeated without wrap-around shifts: page 0 of site 0
	// holds statement 0 hit by X0 then X1 and statement 1 hit by X1 then X0 —
	// one set, two lists, whose two sums differ in the last bit in the second
	// round. A memo keyed by the set gives one of them the other's
	// probability.
	f.Add([]byte{1, 0, 0, 1, 0, 1, 2, 0, 1, 2, 0, 0, 0xb3, 0x0f, 0x3d, 0xe4, 0xea, 0xc9, 0xe5, 0xa0, 0xf7, 0x7f, 0x00, 0x23, 0xca, 0xa1}, uint16(0), byte(2), byte(0))
	f.Fuzz(func(t *testing.T, world []byte, size uint16, mode, bound byte) {
		n := 40 + int(size)%600
		xs := fuzzWorld(world, n)
		cfg := DefaultConfig()
		cfg.SiteLevel = mode&1 == 1
		cfg.Rounds = 1 + int(mode>>1)%5
		CheckLayer1(t)
		workers := []int{1, 3, 8}
		for _, cells := range []int{memoMaxCells, int(bound) % 8} {
			SetMemoMaxCells(t, cells)
			at := fmt.Sprintf("memo bound %d", cells)

			// One graph, cold: against the reference, and across Workers.
			g := extract.CompileWorkers(xs, cfg.SiteLevel, 1)
			ref := MustFuseReference(xs, cfg)
			var want *fusion.Result
			for _, w := range workers {
				c := cfg
				c.Workers = w
				got := MustFuseCompiled(g, c)
				if want == nil {
					requireClose(t, at+": compiled vs reference", got, ref)
					want = got
				}
				requireBitIdentical(t, fmt.Sprintf("%s: cold, workers %d", at, w), got, want)
			}

			// A warm chain over three batches: the second warm step runs on
			// the engines the first one hands on, revising their last E-step.
			cuts := []int{n / 2, 3 * n / 4, n}
			var wantPost *fusion.Posterior
			var wantSt *State
			for _, w := range workers {
				c := cfg
				c.Workers = w
				g := extract.CompileWorkers(xs[:cuts[0]], c.SiteLevel, 1)
				_, st := fuseOne(t, g, c, nil)
				var post *fusion.Posterior
				for i := 1; i < len(cuts); i++ {
					g = g.AppendWorkers(xs[cuts[i-1]:cuts[i]], 1)
					post, st = fuseOne(t, g, c, st)
				}
				if wantPost == nil {
					wantPost, wantSt = post, st
				}
				requireSameBits(t, fmt.Sprintf("%s: warm chain, workers %d", at, w), post, wantPost, st, wantSt)
			}

			// Three shard graphs, cold and then one warm step.
			wantPost, wantSt = nil, nil
			for _, w := range workers {
				c := cfg
				c.Workers = w
				graphs, ids := shardWorld(make([]*extract.Compiled, 3), nil, xs[:cuts[1]], c.SiteLevel)
				_, st, err := FuseLockstep(graphs, ids, c, &State{})
				if err != nil {
					t.Fatal(err)
				}
				graphs, ids = shardWorld(graphs, ids, xs[cuts[1]:], c.SiteLevel)
				post, st, err := FuseLockstep(graphs, ids, c, st)
				if err != nil {
					t.Fatal(err)
				}
				if wantPost == nil {
					wantPost, wantSt = post, st
				}
				requireSameBits(t, fmt.Sprintf("%s: three shards, workers %d", at, w), post, wantPost, st, wantSt)
			}
		}
	})
}
