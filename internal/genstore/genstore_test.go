package genstore

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/twolayer"
)

// testFeed synthesizes a deterministic extraction stream with repeated
// (prov, triple) pairs across batch boundaries and a growing extractor
// fleet, so appends rename nothing but do extend every ID space.
func testFeed(n int) []extract.Extraction {
	out := make([]extract.Extraction, n)
	for i := range out {
		out[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", i%23)),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", i%3)),
				Object:    kb.StringObject(fmt.Sprintf("v%d", (i*7)%5)),
			},
			Extractor:  fmt.Sprintf("X%d", (i*13)%4),
			Pattern:    fmt.Sprintf("pat%d", i%3),
			URL:        fmt.Sprintf("http://site%d.example/p%d", i%9, i%17),
			Site:       fmt.Sprintf("site%d.example", i%9),
			Confidence: float64(i%10) / 10,
			Error:      extract.ErrorKind(i % 5),
		}
	}
	return out
}

// testChain is the claim-layer chain the suite persists: the production
// Chain over the given shard count, bound the way kfuse -append binds it
// (every batch under the full config, warm-started).
func testChain(shards int) *Chain {
	cfg := fusion.PopAccuConfig()
	cfg.Granularity = fusion.GranExtractorSitePred
	return ClaimChain("popaccu", cfg, 0, shards)
}

// runPipeline drives a full append run of chain over fsys: open (recovering
// whatever state survives), append the unconsumed feed suffix in chunks,
// snapshot every snapEvery batches and at the end. Any error is "the crash".
func runPipeline(fsys faultfs.FS, chain *Chain, feed []extract.Extraction, chunk, snapEvery int) (*State, error) {
	store, st, err := OpenFS(fsys, chain.Apply)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	for off := st.Consumed; off < len(feed); {
		end := min(off+chunk, len(feed))
		if err := store.Append(st, feed[off:end]); err != nil {
			return nil, err
		}
		off = end
		if snapEvery > 0 && st.Batches%snapEvery == 0 {
			if err := store.Snapshot(st); err != nil {
				return nil, err
			}
		}
	}
	if err := store.Snapshot(st); err != nil {
		return nil, err
	}
	return st, nil
}

// stateFingerprint reduces a state to comparable bytes: the canonical claim
// graph encodings — the one graph or the K shards' — plus the result
// encoding.
func stateFingerprint(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "consumed=%d batches=%d\n", st.Consumed, st.Batches)
	graphs := []*fusion.Compiled{st.Claim}
	if f := st.ClaimShards; f != nil {
		graphs = graphs[:0]
		for s := 0; s < f.K(); s++ {
			graphs = append(graphs, f.Shard(s))
		}
	}
	for _, g := range graphs {
		if g == nil {
			continue
		}
		if err := g.EncodeSnapshot(&buf); err != nil {
			t.Fatalf("encode claim graph: %v", err)
		}
	}
	if res := st.Fused(); res != nil {
		if err := fusion.EncodeResult(&buf, res); err != nil {
			t.Fatalf("encode result: %v", err)
		}
	}
	return buf.Bytes()
}

// exported copies a result down to its exported fields — what a snapshot
// stores and reflect.DeepEqual may compare: a materialised result also points
// back to the posterior (and through it the graph) it came from.
func exported(res *fusion.Result) *fusion.Result {
	if res == nil {
		return nil
	}
	return &fusion.Result{Triples: res.Triples, Rounds: res.Rounds, ProvAccuracy: res.ProvAccuracy, Unpredicted: res.Unpredicted}
}

// exportedTL does the same for a two-layer warm state, which carries the step
// engines of the run that returned it beside the three vectors a snapshot
// stores.
func exportedTL(st *twolayer.State) *twolayer.State {
	if st == nil {
		return nil
	}
	return &twolayer.State{SrcAcc: st.SrcAcc, Recall: st.Recall, FalsePos: st.FalsePos}
}

const (
	feedLen   = 120
	chunkLen  = 25
	snapEvery = 2
)

// uncrashedFingerprint runs the pipeline once with no faults and returns the
// reference final state.
func uncrashedFingerprint(t *testing.T, chain *Chain) []byte {
	t.Helper()
	st, err := runPipeline(faultfs.NewMem(), chain, testFeed(feedLen), chunkLen, snapEvery)
	if err != nil {
		t.Fatalf("uncrashed run failed: %v", err)
	}
	return stateFingerprint(t, st)
}

// crashPoints picks the step budgets the sweep injects: every boundary early
// on (metadata writes, journal header, first records) and a dense stride
// across the rest of the run.
func crashPoints(t *testing.T, total int64) []int64 {
	t.Helper()
	dense := int64(150)
	stride := int64(1)
	if total > 600 {
		stride = total / 300
	}
	if testing.Short() {
		dense = 40
		stride = total / 60
		if stride == 0 {
			stride = 1
		}
	}
	var pts []int64
	for b := int64(0); b < total && b < dense; b++ {
		pts = append(pts, b)
	}
	for b := dense; b < total; b += stride {
		pts = append(pts, b)
	}
	return pts
}

// TestCrashRecoveryEveryStep is the tentpole property test: crash the
// pipeline after b I/O steps for a sweep of b across the whole run, recover
// on the surviving bytes, finish the run, and require the final state to be
// bit-identical to the uncrashed run's — for clean crashes and torn renames,
// on the one-graph chain and on a K=3 sharded one (one store either way).
func TestCrashRecoveryEveryStep(t *testing.T) {
	feed := testFeed(feedLen)
	for _, torn := range []bool{false, true} {
		name := "clean"
		if torn {
			name = "torn-rename"
		}
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 3} {
				chain := testChain(k)
				want := uncrashedFingerprint(t, chain)

				// Recorder pass counts the total step budget of a full run.
				rec := faultfs.NewFaulty(faultfs.NewMem(), -1)
				if _, err := runPipeline(rec, chain, feed, chunkLen, snapEvery); err != nil {
					t.Fatalf("K=%d: recorder run failed: %v", k, err)
				}
				for _, b := range crashPoints(t, rec.Spent()) {
					mem := faultfs.NewMem()
					ffs := faultfs.NewFaulty(mem, b)
					ffs.TornRename = torn
					if _, err := runPipeline(ffs, chain, feed, chunkLen, snapEvery); err == nil {
						t.Fatalf("K=%d budget %d: run did not crash", k, b)
					}

					// The Mem map is the disk at the moment of death; recover
					// on it with no faults and finish the run.
					st, err := runPipeline(mem, chain, feed, chunkLen, snapEvery)
					if err != nil {
						t.Fatalf("K=%d budget %d: recovery run failed: %v", k, b, err)
					}
					if got := stateFingerprint(t, st); !bytes.Equal(got, want) {
						t.Fatalf("K=%d budget %d: recovered state differs from uncrashed run", k, b)
					}
				}
			}
		})
	}
}

// TestShardedStateRoundTrip: a K=3 claim chain appended through the store in
// chunks, snapshotted and reopened, holds the same K graphs as the chain that
// never left memory and continues exactly as it does — one store, one
// journal, with K in the snapshot.
func TestShardedStateRoundTrip(t *testing.T) {
	const k = 3
	chain := testChain(k)
	feed := testFeed(feedLen + 30)
	head, tail := feed[:feedLen], feed[feedLen:]

	mem := faultfs.NewMem()
	store, st, err := OpenFS(mem, chain.Apply)
	if err != nil {
		t.Fatal(err)
	}
	live := &State{}
	for off := 0; off < len(head); off += chunkLen {
		batch := head[off:min(off+chunkLen, len(head))]
		if err := store.Append(st, batch); err != nil {
			t.Fatal(err)
		}
		if err := chain.Apply(live, batch); err != nil {
			t.Fatal(err)
		}
		live.Batches++
		live.Consumed += len(batch)
	}
	if err := store.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store, st, err = OpenFS(mem, chain.Apply)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if d := store.Degradations(); len(d) != 0 {
		t.Fatalf("clean reopen degraded: %v", d)
	}
	if st.ClaimShards == nil || st.ClaimShards.K() != k || st.Claim != nil {
		t.Fatalf("reopened state is not a K=%d sharded one", k)
	}
	if !bytes.Equal(stateFingerprint(t, st), stateFingerprint(t, live)) {
		t.Fatal("reopened state differs from the live one")
	}
	if err := store.Append(st, tail); err != nil {
		t.Fatal(err)
	}
	if err := chain.Apply(live, tail); err != nil {
		t.Fatal(err)
	}
	live.Batches++
	live.Consumed += len(tail)
	if !bytes.Equal(stateFingerprint(t, st), stateFingerprint(t, live)) {
		t.Fatal("reopened chain diverged from the live one")
	}
}

// TestShardCountMismatchRefused: a K=3 state reopened by a chain of another
// K is refused, naming both counts — by the open itself when journaled
// batches follow the snapshot (replay runs the chain), by Check when the
// snapshot is all there is — and the store's files are left as they were.
func TestShardCountMismatchRefused(t *testing.T) {
	feed := testFeed(feedLen)
	for _, journaled := range []int{0, 1} {
		mem := faultfs.NewMem()
		store, st, err := OpenFS(mem, testChain(3).Apply)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3+journaled; i++ {
			if err := store.Append(st, feed[i*chunkLen:(i+1)*chunkLen]); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if err := store.Snapshot(st); err != nil {
					t.Fatal(err)
				}
			}
		}
		store.Close()
		before := files(t, mem)

		for _, k := range []int{2, 4} {
			want := fmt.Sprintf("state holds K=3 graphs, chain runs K=%d", k)
			store, st, err := OpenFS(mem, testChain(k).Apply)
			if err == nil {
				err = testChain(k).Check(st)
				store.Close()
			}
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%d journaled: reopening at K=%d = %v, want %q", journaled, k, err, want)
			}
			if !reflect.DeepEqual(files(t, mem), before) {
				t.Errorf("%d journaled: the refused reopen at K=%d changed the store", journaled, k)
			}
		}
	}
}

// files reads every file of a store.
func files(t *testing.T, mem *faultfs.Mem) map[string][]byte {
	t.Helper()
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, n := range names {
		if out[n], err = mem.ReadFile(n); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCleanReopenWarmBoots checks the warm-boot path: a completed run
// reopens with zero degradations and the exact final state, without
// reapplying any batch.
func TestCleanReopenWarmBoots(t *testing.T) {
	mem := faultfs.NewMem()
	feed := testFeed(feedLen)
	st, err := runPipeline(mem, testChain(1), feed, chunkLen, snapEvery)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := stateFingerprint(t, st)

	applied := 0
	store, st2, err := OpenFS(mem, func(st *State, batch []extract.Extraction) error {
		applied++
		return nil
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store.Close()
	if applied != 0 {
		t.Fatalf("clean reopen replayed %d batches", applied)
	}
	if d := store.Degradations(); len(d) != 0 {
		t.Fatalf("clean reopen degraded: %v", d)
	}
	if got := stateFingerprint(t, st2); !bytes.Equal(got, want) {
		t.Fatal("reopened state differs from final in-memory state")
	}
}

// corruptNewestSnapshot flips one byte in the body of the newest snapshot.
func corruptNewestSnapshot(t *testing.T, mem *faultfs.Mem) string {
	t.Helper()
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	snaps := snapNames(names)
	if len(snaps) == 0 {
		t.Fatal("no snapshots on disk")
	}
	sz, err := mem.Size(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.FlipBit(snaps[0], sz/2, 3); err != nil {
		t.Fatal(err)
	}
	return snaps[0]
}

// TestBitFlipFallsBackToPreviousSnapshot checks degradation rung one: a
// checksum-failing newest snapshot falls back to the previous snapshot plus
// journal replay, reproducing the exact state, with the degradation
// reported.
func TestBitFlipFallsBackToPreviousSnapshot(t *testing.T) {
	mem := faultfs.NewMem()
	feed := testFeed(feedLen)
	st, err := runPipeline(mem, testChain(1), feed, chunkLen, snapEvery)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := stateFingerprint(t, st)
	corruptNewestSnapshot(t, mem)

	store, st2, err := OpenFS(mem, testChain(1).Apply)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store.Close()
	if len(store.Degradations()) == 0 {
		t.Fatal("corrupt snapshot not reported")
	}
	if got := stateFingerprint(t, st2); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery differs from uncrashed state")
	}
}

// TestAllSnapshotsLostRecompilesFromFeed checks the last degradation rung:
// with every snapshot corrupt, Open reports the fallback and returns an
// empty-cursor state; re-running the pipeline from the feed reproduces the
// uncrashed final state.
func TestAllSnapshotsLostRecompilesFromFeed(t *testing.T) {
	mem := faultfs.NewMem()
	feed := testFeed(feedLen)
	st, err := runPipeline(mem, testChain(1), feed, chunkLen, snapEvery)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := stateFingerprint(t, st)

	names, _ := mem.List()
	for _, n := range snapNames(names) {
		sz, _ := mem.Size(n)
		if err := mem.FlipBit(n, sz/3, 1); err != nil {
			t.Fatal(err)
		}
	}

	store, st2, err := OpenFS(mem, testChain(1).Apply)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	degr := store.Degradations()
	store.Close()
	if len(degr) == 0 {
		t.Fatal("lost snapshots not reported")
	}
	if st2.Claim != nil {
		t.Fatal("corrupt snapshots still hydrated a graph")
	}

	// The journal alone cannot bridge the rotation floor; the driver
	// re-reads the feed from Consumed (== 0 here) and must converge.
	st3, err := runPipeline(mem, testChain(1), feed, chunkLen, snapEvery)
	if err != nil {
		t.Fatalf("recompile run: %v", err)
	}
	if got := stateFingerprint(t, st3); !bytes.Equal(got, want) {
		t.Fatal("recompiled state differs from uncrashed state")
	}
}

// TestTruncatedSnapshotAndJournal checks byte-level truncation of both files
// never panics and always recovers to the uncrashed state via feed re-read.
func TestTruncatedSnapshotAndJournal(t *testing.T) {
	base := faultfs.NewMem()
	feed := testFeed(feedLen)
	st, err := runPipeline(base, testChain(1), feed, chunkLen, snapEvery)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := stateFingerprint(t, st)

	names, _ := base.List()
	for _, name := range names {
		sz, _ := base.Size(name)
		for _, cut := range []int{0, 1, sz / 3, sz / 2, sz - 1} {
			if cut < 0 || cut >= sz {
				continue
			}
			mem := base.Clone()
			if err := mem.Truncate(name, cut); err != nil {
				t.Fatal(err)
			}
			st2, err := runPipeline(mem, testChain(1), feed, chunkLen, snapEvery)
			if err != nil {
				t.Fatalf("truncate %s to %d: run failed: %v", name, cut, err)
			}
			if got := stateFingerprint(t, st2); !bytes.Equal(got, want) {
				t.Fatalf("truncate %s to %d: state differs", name, cut)
			}
		}
	}
}

// TestTwoLayerStateRoundTrips checks the store carries the extraction graph
// and twolayer warm-start state across a reopen bit-identically, through the
// two-layer binding of the same Chain.
func TestTwoLayerStateRoundTrips(t *testing.T) {
	mem := faultfs.NewMem()
	feed := testFeed(feedLen)
	d := TwoLayerChain(twolayer.DefaultConfig(), 0, 1)

	store, st, err := OpenFS(mem, d.Apply)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(feed); off += chunkLen {
		if err := store.Append(st, feed[off:min(off+chunkLen, len(feed))]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := store.Snapshot(st); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	store.Close()

	store2, st2, err := OpenFS(mem, TwoLayerChain(twolayer.DefaultConfig(), 0, 1).Apply)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.Close()
	if d := store2.Degradations(); len(d) != 0 {
		t.Fatalf("degradations: %v", d)
	}
	var a, b bytes.Buffer
	if err := st.Ext.EncodeSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := st2.Ext.EncodeSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("extraction graph differs after reopen")
	}
	if !reflect.DeepEqual(exportedTL(st2.TL), exportedTL(st.TL)) {
		t.Fatal("twolayer state differs after reopen")
	}
	if !reflect.DeepEqual(exported(st2.Fused()), exported(st.Fused())) {
		t.Fatal("result differs after reopen")
	}
	if st2.Method != "twolayer" || st2.SiteLevel != st.SiteLevel {
		t.Fatal("meta differs after reopen")
	}

	// Continue both one batch and confirm they stay in lockstep.
	extra := testFeed(feedLen + 30)[feedLen:]
	if err := d.Apply(st, extra); err != nil {
		t.Fatal(err)
	}
	if err := store2.Append(st2, extra); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exported(st2.Fused()), exported(st.Fused())) {
		t.Fatal("results diverge after continued append")
	}
}

// TestJournalRecordRoundTrip checks the journal record codec is lossless,
// including the simulator's error attribution.
func TestJournalRecordRoundTrip(t *testing.T) {
	batch := testFeed(37)
	enc := encodeRecord(9, batch)
	recs, validLen, note := parseJournal(append(journalHeader(), enc...))
	if note != "" || validLen != journalHeaderLen+len(enc) {
		t.Fatalf("parse: note=%q validLen=%d", note, validLen)
	}
	if len(recs) != 1 || recs[0].seq != 9 {
		t.Fatalf("got %d records, seq %d", len(recs), recs[0].seq)
	}
	if !reflect.DeepEqual(recs[0].batch, batch) {
		t.Fatal("batch did not round-trip")
	}
}
