package shard

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/twolayer"
)

// testExtractions builds a synthetic stream with heavy (item, source,
// extractor) collisions so claim dedup, cross-shard provenances, and the
// ghost extractor sets all get exercised: a source's extractions spread over
// many items, so for K > 1 almost every source and extractor spans shards.
func testExtractions(rng *rand.Rand, n int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	for i := range xs {
		site := fmt.Sprintf("site%d", rng.Intn(7))
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(40))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(5))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(6))),
			},
			Extractor:  fmt.Sprintf("E%d", rng.Intn(6)),
			Pattern:    fmt.Sprintf("pat%d", rng.Intn(3)),
			URL:        fmt.Sprintf("http://%s/page%d", site, rng.Intn(9)),
			Site:       site,
			Confidence: -1,
		}
	}
	return xs
}

// goldLabeler labels a deterministic half of the triples.
func goldLabeler(t kb.Triple) (bool, bool) {
	h := 0
	for _, b := range []byte(t.Encode()) {
		h = h*31 + int(b)
	}
	if h%3 == 0 {
		return false, false
	}
	return h%2 == 0, true
}

func fusionConfigs() map[string]fusion.Config {
	vote := fusion.VoteConfig()
	accu := fusion.AccuConfig()
	pop := fusion.PopAccuConfig()
	popPlus := fusion.PopAccuPlusConfig(goldLabeler)
	unsup := fusion.PopAccuPlusUnsupConfig()
	// Capped before convergence: the shards agree on a round prefix too.
	pop2 := fusion.PopAccuConfig()
	pop2.Rounds = 2
	return map[string]fusion.Config{
		"vote":       vote,
		"accu":       accu,
		"popaccu":    pop,
		"popaccu-R2": pop2,
		"popplus":    popPlus,
		"popunsup":   unsup,
	}
}

// unshardedFuse is the reference single-graph streaming pipeline.
func unshardedFuse(t *testing.T, xs []extract.Extraction, cfg fusion.Config) *fusion.Result {
	t.Helper()
	res, err := fusion.CompileExtractions(xs, cfg.Granularity, 0).Fuse(cfg)
	if err != nil {
		t.Fatalf("unsharded fuse: %v", err)
	}
	return res
}

func shardedFuse(t *testing.T, xs []extract.Extraction, k int, cfg fusion.Config) *fusion.Result {
	t.Helper()
	f, err := NewFusion(k, cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(xs); err != nil {
		t.Fatal(err)
	}
	res, err := f.Fuse(cfg)
	if err != nil {
		t.Fatalf("sharded fuse K=%d: %v", k, err)
	}
	return res
}

// sortedTriples returns a result's fused triples in canonical (encoded
// triple) order, so shard-major output order can be compared across K.
func sortedTriples(res *fusion.Result) []fusion.FusedTriple {
	out := append([]fusion.FusedTriple(nil), res.Triples...)
	sort.Slice(out, func(i, j int) bool { return out[i].Triple.Encode() < out[j].Triple.Encode() })
	return out
}

// requireBitIdentical asserts two results match exactly, including output
// order and every float bit.
func requireBitIdentical(t *testing.T, tag string, want, got *fusion.Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Unpredicted != want.Unpredicted || len(got.Triples) != len(want.Triples) {
		t.Fatalf("%s: shape differs: rounds %d/%d unpredicted %d/%d triples %d/%d",
			tag, got.Rounds, want.Rounds, got.Unpredicted, want.Unpredicted, len(got.Triples), len(want.Triples))
	}
	for i := range want.Triples {
		w, g := want.Triples[i], got.Triples[i]
		if w != g {
			t.Fatalf("%s: triple %d differs:\nwant %+v\ngot  %+v", tag, i, w, g)
		}
	}
	if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
		t.Fatalf("%s: prov accuracy sizes differ: %d vs %d", tag, len(got.ProvAccuracy), len(want.ProvAccuracy))
	}
	for k, w := range want.ProvAccuracy {
		if g, ok := got.ProvAccuracy[k]; !ok || g != w {
			t.Fatalf("%s: prov %q accuracy %v, want %v", tag, k, g, w)
		}
	}
}

// requireCloseToReference asserts integer outputs match exactly (after
// canonical ordering) and float outputs agree within the documented RefTol.
func requireCloseToReference(t *testing.T, tag string, want, got *fusion.Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Unpredicted != want.Unpredicted || len(got.Triples) != len(want.Triples) {
		t.Fatalf("%s: shape differs: rounds %d/%d unpredicted %d/%d triples %d/%d",
			tag, got.Rounds, want.Rounds, got.Unpredicted, want.Unpredicted, len(got.Triples), len(want.Triples))
	}
	ws, gs := sortedTriples(want), sortedTriples(got)
	for i := range ws {
		w, g := ws[i], gs[i]
		if w.Triple != g.Triple || w.Predicted != g.Predicted ||
			w.Provenances != g.Provenances || w.ItemProvenances != g.ItemProvenances || w.Extractors != g.Extractors {
			t.Fatalf("%s: integer fields differ at %d:\nwant %+v\ngot  %+v", tag, i, w, g)
		}
		if !twolayer.CloseToReference(w.Probability, g.Probability) {
			t.Fatalf("%s: %s probability %v vs %v beyond RefTol", tag, w.Triple.Encode(), g.Probability, w.Probability)
		}
	}
	for k, w := range want.ProvAccuracy {
		g, ok := got.ProvAccuracy[k]
		if !ok || !twolayer.CloseToReference(w, g) {
			t.Fatalf("%s: prov %q accuracy %v, want %v within RefTol", tag, k, g, w)
		}
	}
}

// TestFusionShardOneBitIdentical pins the K=1 anchor: the sharded pipeline
// with one shard is bit-for-bit the unsharded streaming pipeline, for every
// method family.
func TestFusionShardOneBitIdentical(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(7)), 4000)
	for name, cfg := range fusionConfigs() {
		want := unshardedFuse(t, xs, cfg)
		got := shardedFuse(t, xs, 1, cfg)
		requireBitIdentical(t, name+"/K=1", want, got)
	}
}

// TestFusionShardCountIndependence pins the K>1 policy: K in {2,4,8} agrees
// with K=1 exactly on every integer output and within RefTol on every float.
func TestFusionShardCountIndependence(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(8)), 4000)
	for name, cfg := range fusionConfigs() {
		want := shardedFuse(t, xs, 1, cfg)
		for _, k := range []int{2, 4, 8} {
			got := shardedFuse(t, xs, k, cfg)
			requireCloseToReference(t, fmt.Sprintf("%s/K=%d", name, k), want, got)
		}
	}
}

// TestFusionShardWorkerIndependence: for a fixed K, results are bit-identical
// for any Workers value (the per-shard engines keep their contract and the
// merge order is worker-free).
func TestFusionShardWorkerIndependence(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(9)), 3000)
	cfg := fusion.PopAccuConfig()
	cfg.Workers = 1
	want := shardedFuse(t, xs, 4, cfg)
	for _, workers := range []int{2, 3, 8} {
		cfg.Workers = workers
		got := shardedFuse(t, xs, 4, cfg)
		requireBitIdentical(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}

// TestFusionShardAppendVsOneShot: for a fixed K, growing the pipeline in
// chunks fuses bit-identically to one Append of the whole feed — the
// sharded extension of the append==recompile contract.
func TestFusionShardAppendVsOneShot(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(10)), 4000)
	cfg := fusion.PopAccuConfig()
	for _, k := range []int{1, 3} {
		want := shardedFuse(t, xs, k, cfg)
		f, err := NewFusion(k, cfg.Granularity)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(xs); lo += 1000 {
			hi := lo + 1000
			if hi > len(xs) {
				hi = len(xs)
			}
			if err := f.Append(xs[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := f.Fuse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("K=%d chunked", k), want, got)
	}
}

// TestFusionShardWarm: FuseWarm over a sharded pipeline matches the
// unsharded warm start bit-for-bit at K=1, and a warm start from a prior
// generation's result works across appends.
func TestFusionShardWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := testExtractions(rng, 4000)
	batch := testExtractions(rng, 800)
	cfg := fusion.PopAccuConfig()

	g := fusion.CompileExtractions(xs, cfg.Granularity, 0)
	prevU, err := g.Fuse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = g.AppendExtractions(batch, cfg.Granularity); err != nil {
		t.Fatal(err)
	}
	wantWarm, err := g.FuseWarm(cfg, prevU)
	if err != nil {
		t.Fatal(err)
	}

	f, err := NewFusion(1, cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(xs); err != nil {
		t.Fatal(err)
	}
	prevS, err := f.Fuse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "warm/prev", prevU, prevS)
	if err := f.Append(batch); err != nil {
		t.Fatal(err)
	}
	gotWarm, err := f.FuseWarm(cfg, prevS)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "warm/K=1", wantWarm, gotWarm)
}

// TestFusionFromShards: persisting the per-shard graphs and reassembling a
// coordinator over them continues the pipeline (append + fuse) exactly.
func TestFusionFromShards(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := testExtractions(rng, 3000)
	batch := testExtractions(rng, 700)
	cfg := fusion.PopAccuConfig()
	const k = 3

	f, err := NewFusion(k, cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(xs); err != nil {
		t.Fatal(err)
	}
	graphs := make([]*fusion.Compiled, k)
	for s := range graphs {
		graphs[s] = f.Shard(s)
	}
	restored, err := NewFusionFromShards(graphs, cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := restored.Append(batch); err != nil {
		t.Fatal(err)
	}
	want, err := f.Fuse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Fuse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "restored", want, got)
}

// TestSplitRouting: the split helper agrees with Of, partitions its input
// completely and in input order, sizes every part exactly, and leaves the
// shards a batch does not reach nil.
func TestSplitRouting(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(13)), 1000)
	for _, k := range []int{1, 2, 5} {
		for _, n := range []int{0, 2, len(xs)} {
			parts := SplitExtractions(xs[:n], k)
			want := make([][]extract.Extraction, k)
			for _, x := range xs[:n] {
				s := Of(x.Triple.Item(), k)
				want[s] = append(want[s], x)
			}
			if k == 1 {
				want[0] = xs[:n]
			}
			if !reflect.DeepEqual(parts, want) {
				t.Fatalf("K=%d n=%d: split differs from routing each record by Of in input order", k, n)
			}
			for s, part := range parts {
				if k > 1 && cap(part) != len(part) {
					t.Fatalf("K=%d n=%d: shard %d part has cap %d for %d records", k, n, s, cap(part), len(part))
				}
			}
		}
	}
}

// decoded returns a hand-built copy of res's exported fields: with no
// posterior behind it, the next FuseWarm seeds through the ProvAccuracy map
// instead of by index.
func decoded(t *testing.T, res *fusion.Result) *fusion.Result {
	t.Helper()
	return &fusion.Result{Triples: slices.Clone(res.Triples), Rounds: res.Rounds, ProvAccuracy: maps.Clone(res.ProvAccuracy), Unpredicted: res.Unpredicted}
}

// TestFusionShardDenseSeed: at every step of a 30-step streaming chain (one
// warm round per step), the coordinator's FuseWarm seeded from the previous
// step's own result — by index through the cross-shard table it kept
// extending — equals, bit for bit, FuseWarm seeded from that result's
// decoded copy, the string-map path. Then the cases where the previous
// result's IDs are another table's: a K=4 result seeding K=1 and back, and a
// result seeding a coordinator rebuilt from the shard graphs.
func TestFusionShardDenseSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	head := testExtractions(rng, 2000)
	steps := make([][]extract.Extraction, 30)
	for i := range steps {
		steps[i] = testExtractions(rng, 150)
	}
	cold := fusion.PopAccuConfig()
	warm := cold
	warm.Rounds = 1

	last := map[int]*fusion.Result{}
	coords := map[int]*Fusion{}
	for _, k := range []int{1, 4} {
		f, err := NewFusion(k, cold.Granularity)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(head); err != nil {
			t.Fatal(err)
		}
		prev, err := f.Fuse(cold)
		if err != nil {
			t.Fatal(err)
		}
		for i, batch := range steps {
			if err := f.Append(batch); err != nil {
				t.Fatal(err)
			}
			got, err := f.FuseWarm(warm, prev)
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.FuseWarm(warm, decoded(t, prev))
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("K=%d step %d", k, i), want, got)
			prev = got
		}
		last[k], coords[k] = prev, f
	}

	for _, tc := range []struct{ from, into int }{{4, 1}, {1, 4}} {
		f := coords[tc.into]
		got, err := f.FuseWarm(warm, last[tc.from])
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.FuseWarm(warm, decoded(t, last[tc.from]))
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("K=%d result into K=%d", tc.from, tc.into), want, got)
	}

	graphs := make([]*fusion.Compiled, 4)
	for s := range graphs {
		graphs[s] = coords[4].Shard(s)
	}
	rebuilt, err := NewFusionFromShards(graphs, cold.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.FuseWarm(warm, last[4])
	if err != nil {
		t.Fatal(err)
	}
	want, err := rebuilt.FuseWarm(warm, decoded(t, last[4]))
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "rebuilt table", want, got)
}
