package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
)

// serialTables is the reference numbering: the K graphs of both
// coordinators appended one shard after another, each table extended right
// after its shard's graph, chunk by chunk.
func serialTables(t *testing.T, chunks [][]extract.Extraction, k int, gran fusion.Granularity, siteLevel bool) (provs, srcs, exts *csr.IDTable) {
	t.Helper()
	provs, srcs, exts = csr.NewIDTable(k), csr.NewIDTable(k), csr.NewIDTable(k)
	claim := make([]*fusion.Compiled, k)
	ext := make([]*extract.Compiled, k)
	for _, chunk := range chunks {
		parts := SplitExtractions(chunk, k)
		for s := range k {
			if claim[s] == nil {
				claim[s] = fusion.CompileExtractions(parts[s], gran, 0)
				ext[s] = extract.Compile(parts[s], siteLevel)
			} else {
				var err error
				if claim[s], err = claim[s].AppendExtractions(parts[s], gran); err != nil {
					t.Fatal(err)
				}
				ext[s] = ext[s].Append(parts[s])
			}
			c, g := claim[s], ext[s]
			provs.Extend(s, c.NumProvenances(), func(p int32) string { return c.ProvKey(int(p)) })
			srcs.Extend(s, g.NumSources(), func(i int32) string { return g.SourceKey(i) })
			exts.Extend(s, g.NumExtractors(), func(i int32) string { return g.ExtractorName(i) })
		}
	}
	return provs, srcs, exts
}

// requireSameTable compares two tables over k shards whose shard s holds
// local[s] IDs: the key column, every shard's local → global map and every
// global ID's holders.
func requireSameTable(t *testing.T, tag string, want, got *csr.IDTable, local []int) {
	t.Helper()
	if !slices.Equal(got.Keys(), want.Keys()) {
		t.Fatalf("%s: %d global keys, want %d, or they are numbered differently", tag, got.N(), want.N())
	}
	for s, n := range local {
		for l := range n {
			if g, w := got.Global(s, l), want.Global(s, l); g != w {
				t.Fatalf("%s: shard %d local %d is global %d, want %d", tag, s, l, g, w)
			}
		}
	}
	a, b := make([]csr.Loc, 0, len(local)), make([]csr.Loc, 0, len(local))
	for g := range want.N() {
		if h, w := got.Holders(g, a), want.Holders(g, b); !slices.Equal(h, w) {
			t.Fatalf("%s: global %d held by %v, want %v", tag, g, h, w)
		}
	}
}

// TestShardAppendWorkerIndependence: both coordinators compile their K
// slices side by side and extend their ID tables afterwards, in shard order.
// On a K = 4 coordinator fed in widening chunks — later ones bring known keys
// to new shards and new keys to every shard — under GOMAXPROCS 1 and 8, the
// claim coordinator's provenance table and the two-layer coordinator's
// source and extractor tables number every key, and list every key's
// holders, as a shard-by-shard append of the same chunks does.
func TestShardAppendWorkerIndependence(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewSource(44))
	var chunks [][]extract.Extraction
	for i := range 8 {
		chunks = append(chunks, wideningBatch(rng, 500, i*8))
	}
	gran := fusion.PopAccuConfig().Granularity
	provs, srcs, exts := serialTables(t, chunks, k, gran, false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		f, err := NewFusion(k, gran)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := NewTwoLayer(k, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range chunks {
			if err := f.Append(chunk); err != nil {
				t.Fatal(err)
			}
			tl.Append(chunk)
		}
		nProv, nSrc, nExt := make([]int, k), make([]int, k), make([]int, k)
		for s := range k {
			nProv[s] = f.Shard(s).NumProvenances()
			nSrc[s], nExt[s] = tl.Shard(s).NumSources(), tl.Shard(s).NumExtractors()
		}
		if f.NumProvenances() != provs.N() {
			t.Fatalf("GOMAXPROCS=%d: NumProvenances %d, want %d", procs, f.NumProvenances(), provs.N())
		}
		requireSameTable(t, fmt.Sprintf("GOMAXPROCS=%d provenances", procs), provs, f.provs, nProv)
		requireSameTable(t, fmt.Sprintf("GOMAXPROCS=%d sources", procs), srcs, tl.srcs, nSrc)
		requireSameTable(t, fmt.Sprintf("GOMAXPROCS=%d extractors", procs), exts, tl.exts, nExt)
	}
}

// TestFusionAppendErrorLeavesCoordinator: when some shards refuse a batch,
// Append names the lowest of them and leaves every graph and the provenance
// table as they were — the shard that accepted it included.
func TestFusionAppendErrorLeavesCoordinator(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewSource(45))
	head, batch := testExtractions(rng, 2000), testExtractions(rng, 400)
	built, err := NewFusion(k, fusion.GranExtractorSite)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Append(head); err != nil {
		t.Fatal(err)
	}
	graphs := make([]*fusion.Compiled, k)
	for s := range graphs {
		graphs[s] = built.Shard(s)
	}
	// A graph whose interning index has moved on to a successor no longer
	// knows its feed granularity and accepts any; the other three refuse a
	// batch flattened under another one.
	if _, err := graphs[0].AppendExtractions(nil, fusion.GranExtractorSite); err != nil {
		t.Fatal(err)
	}
	f, err := NewFusionFromShards(graphs, fusion.GranExtractorURL)
	if err != nil {
		t.Fatal(err)
	}
	keys := f.provs.Keys()
	err = f.Append(batch)
	if err == nil || !strings.HasPrefix(err.Error(), "shard 1: ") {
		t.Fatalf("Append: error %v, want one naming shard 1", err)
	}
	for s, g := range graphs {
		if f.Shard(s) != g {
			t.Fatalf("shard %d: graph replaced by a failed Append", s)
		}
	}
	if !slices.Equal(f.provs.Keys(), keys) {
		t.Fatalf("provenance table %d keys after a failed Append, want %d", f.provs.N(), len(keys))
	}
}
