package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/twolayer"
)

// rebuildGhosts derives every ghost list from scratch, the way the
// coordinator did before it maintained them incrementally, and is kept as the
// oracle of ensureGhosts: each global source's extractor union by counting
// sort into one flat buffer, sorted and deduplicated per source, then each
// shard's lists as the union minus the local set.
func rebuildGhosts(t *TwoLayer) [][][]int32 {
	nSrc := t.srcs.N()
	start := make([]int32, nSrc+1)
	for s, g := range t.graphs {
		for ls := 0; ls < g.NumSources(); ls++ {
			start[t.srcs.Global(s, ls)+1] += int32(len(g.SourceExtractors(int32(ls))))
		}
	}
	for gs := 0; gs < nSrc; gs++ {
		start[gs+1] += start[gs]
	}
	end := slices.Clone(start[:nSrc])
	flat := make([]int32, start[nSrc])
	for s, g := range t.graphs {
		for ls := 0; ls < g.NumSources(); ls++ {
			gs := t.srcs.Global(s, ls)
			for _, lx := range g.SourceExtractors(int32(ls)) {
				flat[end[gs]] = t.exts.Global(s, int(lx))
				end[gs]++
			}
		}
	}
	for gs := 0; gs < nSrc; gs++ {
		u := flat[start[gs]:end[gs]]
		slices.Sort(u)
		end[gs] = start[gs] + int32(len(slices.Compact(u)))
	}

	ghosts := make([][][]int32, t.k)
	local := make([]bool, t.exts.N())
	for s, g := range t.graphs {
		ghosts[s] = make([][]int32, g.NumSources())
		for ls := 0; ls < g.NumSources(); ls++ {
			exts := g.SourceExtractors(int32(ls))
			for _, lx := range exts {
				local[t.exts.Global(s, int(lx))] = true
			}
			gs := t.srcs.Global(s, ls)
			for _, gx := range flat[start[gs]:end[gs]] {
				if !local[gx] {
					ghosts[s][ls] = append(ghosts[s][ls], gx)
				}
			}
			for _, lx := range exts {
				local[t.exts.Global(s, int(lx))] = false
			}
		}
	}
	return ghosts
}

// ghostsMismatch brings tl's ghost lists up to date and describes the first
// way they differ from the oracle's ("" when they equal it; nil and empty
// lists are the same set).
func ghostsMismatch(tl *TwoLayer) string {
	tl.ensureGhosts()
	want := rebuildGhosts(tl)
	if len(tl.ghosts) != len(want) {
		return fmt.Sprintf("%d shards of ghosts, want %d", len(tl.ghosts), len(want))
	}
	for s := range want {
		if len(tl.ghosts[s]) != len(want[s]) {
			return fmt.Sprintf("shard %d: %d sources, want %d", s, len(tl.ghosts[s]), len(want[s]))
		}
		for ls := range want[s] {
			if !slices.Equal(tl.ghosts[s][ls], want[s][ls]) {
				return fmt.Sprintf("shard %d source %q: ghosts %v, want %v", s, tl.graphs[s].SourceKey(int32(ls)), tl.ghosts[s][ls], want[s][ls])
			}
		}
	}
	return ""
}

// TestGhostsMatchRebuild: along widening append chains at K ∈ {2, 3, 4, 5}
// and both source levels — empty batches, batches too small to reach every
// shard, and two Appends between refreshes included — the maintained ghost
// lists equal the from-scratch rebuild after every step.
func TestGhostsMatchRebuild(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		for _, siteLevel := range []bool{false, true} {
			tag := fmt.Sprintf("K=%d site=%v", k, siteLevel)
			rng := rand.New(rand.NewSource(int64(90 + k)))
			tl, err := NewTwoLayer(k, siteLevel)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 40; step++ {
				n := rng.Intn(120)
				switch {
				case step == 0:
					n = 300
				case step%7 == 3:
					n = 0
				case step%5 == 1:
					n = 1 + rng.Intn(3) // most shards receive nothing
				}
				tl.Append(wideningBatch(rng, n, step))
				if step%6 == 5 {
					tl.Append(wideningBatch(rng, rng.Intn(40), step))
				}
				if msg := ghostsMismatch(tl); msg != "" {
					t.Fatalf("%s step %d: %s", tag, step, msg)
				}
			}
		}
	}
}

// TestGhostCostFollowsBatch: in a K = 4 chain, the global sources whose
// unions and ghost lists a step recomputes are all named by that step's
// batch — a union changes only through a new (source, extractor) pair, so
// this is exact, not a budget. Counted through the refreshed hook.
func TestGhostCostFollowsBatch(t *testing.T) {
	for _, siteLevel := range []bool{false, true} {
		rng := rand.New(rand.NewSource(17))
		tl, err := NewTwoLayer(4, siteLevel)
		if err != nil {
			t.Fatal(err)
		}
		var refreshed []int32
		tl.refreshed = func(gs []int32) { refreshed = append(refreshed, gs...) }
		partial := 0 // steps that recomputed some sources but not all
		for step := 0; step < 40; step++ {
			n := rng.Intn(60)
			if step == 0 {
				n = 600
			}
			batch := wideningBatch(rng, n, step)
			named := map[string]bool{}
			for _, x := range batch {
				key := x.URL
				if siteLevel {
					key = x.Site
				}
				named[key] = true
			}
			tl.Append(batch)
			refreshed = refreshed[:0]
			tl.ensureGhosts()
			for _, gs := range refreshed {
				if key := tl.srcs.Key(int(gs)); !named[key] {
					t.Fatalf("site=%v step %d: recomputed source %q, which the batch does not name", siteLevel, step, key)
				}
			}
			if len(refreshed) > 0 && len(refreshed) < tl.srcs.N() {
				partial++
			}
		}
		if partial == 0 {
			t.Fatalf("site=%v: no step recomputed a strict subset of the sources; the chain does not exercise the bound", siteLevel)
		}
	}
}

// FuzzShardGhosts cuts a generated feed into any sequence of K-shard appends
// and checks, after every Append, the maintained ghost lists against the
// rebuild oracle; then it cold-fuses the chunked coordinator and one that took
// the feed in a single Append. Their global IDs follow the append history, so
// accuracies and rates are compared by key. The engine sums a source's ghost
// misses in ascending global extractor ID order, so the two fuses are equal
// bit for bit when both coordinators number the extractors alike, and within
// twolayer.RefTol when the chunking reordered them (the "7AAA" seed).
func FuzzShardGhosts(f *testing.F) {
	f.Add(int64(1), uint8(2), false, []byte{40, 0, 7, 200, 3})
	f.Add(int64(7), uint8(0), true, []byte{1, 1, 1, 90})
	f.Add(int64(3), uint8(3), false, []byte{255})
	f.Add(int64(13), uint8(1), true, []byte("7AAA")) // numbers E6 and E7 apart from the single Append
	f.Fuzz(func(t *testing.T, seed int64, kSel uint8, siteLevel bool, cuts []byte) {
		k := 2 + int(kSel%4)
		rng := rand.New(rand.NewSource(seed))
		var xs []extract.Extraction
		for step := 0; step < 12; step++ {
			xs = append(xs, wideningBatch(rng, 30, 3*step)...)
		}
		chunked, err := NewTwoLayer(k, siteLevel)
		if err != nil {
			t.Fatal(err)
		}
		lo := 0
		for i, c := range cuts {
			hi := min(lo+int(c), len(xs))
			chunked.Append(xs[lo:hi])
			if msg := ghostsMismatch(chunked); msg != "" {
				t.Fatalf("K=%d after chunk %d: %s", k, i, msg)
			}
			lo = hi
		}
		chunked.Append(xs[lo:])
		if msg := ghostsMismatch(chunked); msg != "" {
			t.Fatalf("K=%d after the last chunk: %s", k, msg)
		}
		whole, err := NewTwoLayer(k, siteLevel)
		if err != nil {
			t.Fatal(err)
		}
		whole.Append(xs)

		cfg := twolayer.DefaultConfig()
		cfg.SiteLevel, cfg.Rounds = siteLevel, 4
		got, gotSt, err := chunked.FusePosterior(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := whole.FusePosterior(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(chunked.exts.Keys(), whole.exts.Keys()) {
			if got.Len() != want.Len() {
				t.Fatalf("K=%d: %d rows, want %d", k, got.Len(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				if !twolayer.CloseToReference(got.Prob(i), want.Prob(i)) {
					t.Fatalf("K=%d row %d (%v): probability %v, want %v within RefTol", k, i, got.Triple(i), got.Prob(i), want.Prob(i))
				}
			}
			return
		}
		if got.Rounds != want.Rounds || got.Len() != want.Len() {
			t.Fatalf("K=%d: %d rounds over %d rows, want %d over %d", k, got.Rounds, got.Len(), want.Rounds, want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if math.Float64bits(got.Prob(i)) != math.Float64bits(want.Prob(i)) {
				t.Fatalf("K=%d row %d (%v): probability %v, want %v", k, i, got.Triple(i), got.Prob(i), want.Prob(i))
			}
		}
		requireSameByKey(t, "source accuracy", chunked.srcs.Keys(), whole.srcs.Keys(), gotSt.SrcAcc, wantSt.SrcAcc)
		requireSameByKey(t, "recall", chunked.exts.Keys(), whole.exts.Keys(), gotSt.Recall, wantSt.Recall)
		requireSameByKey(t, "false-positive rate", chunked.exts.Keys(), whole.exts.Keys(), gotSt.FalsePos, wantSt.FalsePos)
	})
}

// requireSameByKey compares two global-ID-indexed vectors through their key
// columns, bit for bit.
func requireSameByKey(t *testing.T, what string, gotKeys, wantKeys []string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) || len(gotKeys) != len(wantKeys) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	byKey := make(map[string]float64, len(want))
	for g, v := range want {
		byKey[wantKeys[g]] = v
	}
	for g, v := range got {
		if w, ok := byKey[gotKeys[g]]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s of %q = %v, want %v", what, gotKeys[g], v, w)
		}
	}
}
