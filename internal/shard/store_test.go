package shard

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
)

// TestStoresRoundTrip: append a feed through per-shard stores in chunks with
// snapshots, reopen, and verify the recovered graphs continue the pipeline
// bit-identically to an unpersisted run.
func TestStoresRoundTrip(t *testing.T) {
	const k = 3
	rng := rand.New(rand.NewSource(31))
	xs := testExtractions(rng, 3000)
	tail := testExtractions(rng, 600)
	cfg := fusion.PopAccuConfig()
	dir := t.TempDir()

	// Live run: sharded coordinator without persistence.
	ref, err := NewFusion(k, cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}

	stores, states, err := OpenStores(dir, k, growChain(cfg.Granularity))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(xs); lo += 800 {
		hi := lo + 800
		if hi > len(xs) {
			hi = len(xs)
		}
		if err := stores.Append(states, xs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Append(xs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := stores.Snapshot(states); err != nil {
		t.Fatal(err)
	}
	if got, want := Consumed(states), len(xs); got != want {
		t.Fatalf("Consumed = %d, want %d", got, want)
	}
	if err := stores.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovered graphs reassemble a coordinator that continues the
	// pipeline exactly.
	stores, states, err = OpenStores(dir, k, growChain(cfg.Granularity))
	if err != nil {
		t.Fatal(err)
	}
	defer stores.Close()
	if d := stores.Degradations(); len(d) != 0 {
		t.Fatalf("clean reopen degraded: %v", d)
	}
	if Batches(states) == 0 {
		t.Fatal("no batches recovered")
	}
	graphs := make([]*fusion.Compiled, k)
	for s, st := range states {
		graphs[s] = st.Claim
	}
	restored, err := NewFusionFromShards(graphs, cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	if err := stores.Append(states, tail); err != nil {
		t.Fatal(err)
	}
	if err := restored.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := ref.Append(tail); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Fuse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Fuse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "stores/restored", want, got)

	// The persisted graphs after the tail append match the live ones byte
	// for byte (canonical snapshot encoding).
	for s, st := range states {
		var a, b bytes.Buffer
		if err := st.Claim.EncodeSnapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := ref.Shard(s).EncodeSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("shard %d: persisted graph differs from live graph", s)
		}
	}
}

// growChain is the production chain's graph-growing half — the ApplyFunc
// kfuse -shards -state hands OpenStores. One value serves every shard: the
// dedup stream lives on each shard's state.
func growChain(gran fusion.Granularity) genstore.ApplyFunc {
	cfg := fusion.PopAccuConfig()
	cfg.Granularity = gran
	return genstore.ClaimChain("popaccu", cfg, 0).Grow
}

// TestStoresSkewRefused: a batch applied to some shards but not others — the
// crash-between-appends signature — is detected at open and refused with a
// message naming the remedy.
func TestStoresSkewRefused(t *testing.T) {
	const k = 2
	xs := testExtractions(rand.New(rand.NewSource(32)), 500)
	gran := fusion.GranExtractorURL
	dir := t.TempDir()

	stores, states, err := OpenStores(dir, k, growChain(gran))
	if err != nil {
		t.Fatal(err)
	}
	if err := stores.Append(states, xs); err != nil {
		t.Fatal(err)
	}
	// Skew shard 0 by one batch, bypassing the lockstep Append.
	solo, soloState, err := genstore.Open(ShardDir(dir, 0), growChain(gran))
	if err != nil {
		t.Fatal(err)
	}
	extra := testExtractions(rand.New(rand.NewSource(33)), 100)
	if err := solo.Append(soloState, SplitExtractions(extra, k)[0]); err != nil {
		t.Fatal(err)
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stores.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = OpenStores(dir, k, growChain(gran))
	if err == nil {
		t.Fatal("skewed state dir opened without error")
	}
	if !strings.Contains(err.Error(), "skewed") || !strings.Contains(err.Error(), "remove the state directory") {
		t.Fatalf("skew error lacks diagnosis/remedy: %v", err)
	}
}
