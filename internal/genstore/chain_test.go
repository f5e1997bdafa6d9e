package genstore

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/twolayer"
)

// TestReopenedStreamDropsDuplicates pins the dedup stream's lazy reseed: a
// (provenance, triple) pair the snapshot already holds, arriving again after
// a reopen, is dropped exactly as the live stream drops it — live, reopened
// and a one-shot compile of the concatenated feed agree.
func TestReopenedStreamDropsDuplicates(t *testing.T) {
	chain := testChain(1)
	head := testFeed(feedLen)
	// The tail repeats the head's first records verbatim, then brings news.
	tail := append(append([]extract.Extraction(nil), head[:20]...), testFeed(feedLen + 15)[feedLen:]...)

	mem := faultfs.NewMem()
	store, live, err := OpenFS(mem, chain.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(live, head); err != nil {
		t.Fatal(err)
	}
	if err := store.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if err := chain.Apply(live, tail); err != nil { // live: the stream never left memory
		t.Fatal(err)
	}
	live.Batches++
	live.Consumed += len(tail)

	store, reopened, err := OpenFS(mem, chain.Apply)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Append(reopened, tail); err != nil { // reopened: the stream reseeds from the graph
		t.Fatal(err)
	}
	if !bytes.Equal(stateFingerprint(t, reopened), stateFingerprint(t, live)) {
		t.Fatal("reopened chain diverged from the live one on a duplicate-carrying batch")
	}

	all := append(append([]extract.Extraction(nil), head...), tail...)
	oneShot := fusion.MustCompile(fusion.Claims(all, fusion.GranExtractorSitePred))
	if got, want := reopened.Claim.NumClaims(), oneShot.NumClaims(); got != want {
		t.Fatalf("reopened graph holds %d claims, one-shot compile %d", got, want)
	}
	cfg := fusion.PopAccuConfig()
	if !reflect.DeepEqual(exported(reopened.Claim.MustFuse(cfg)), exported(oneShot.MustFuse(cfg))) {
		t.Fatal("reopened graph fuses differently from a one-shot compile of the same feed")
	}
}

// noisyFeed is a conflict-heavy random stream: few items, many disagreeing
// values, so neither engine's EM converges before its round cap.
func noisyFeed(n int) []extract.Extraction {
	rng := rand.New(rand.NewSource(5))
	out := make([]extract.Extraction, n)
	for i := range out {
		site := fmt.Sprintf("site%d", rng.Intn(5))
		out[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(30))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", rng.Intn(4))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(5))),
			},
			Extractor:  fmt.Sprintf("X%d", rng.Intn(4)),
			Pattern:    fmt.Sprintf("pat%d", rng.Intn(2)),
			URL:        fmt.Sprintf("http://%s/p%d", site, rng.Intn(6)),
			Site:       site,
			Confidence: -1,
		}
	}
	return out
}

// TestWarmRoundBudget pins the chain's round semantics on both layers: the
// first batch runs the configuration's full cap; later batches run exactly
// warmRounds rounds, or the full cap again when the budget is 0.
func TestWarmRoundBudget(t *testing.T) {
	fc := fusion.PopAccuConfig()
	fc.Granularity = fusion.GranExtractorSitePred
	tc := twolayer.DefaultConfig()
	const chunk = 500
	feed := noisyFeed(4 * chunk) // no run converges: Rounds reports the cap it ran under
	for _, tt := range []struct {
		name  string
		chain func(warm int) *Chain
		full  int
	}{
		{"claim", func(warm int) *Chain { return ClaimChain("popaccu", fc, warm, 1) }, fc.Rounds},
		{"twolayer", func(warm int) *Chain { return TwoLayerChain(tc, warm, 1) }, tc.Rounds},
	} {
		for _, warm := range []int{0, 1, 3} {
			chain, st := tt.chain(warm), &State{}
			for off := 0; off < len(feed); off += chunk {
				if err := chain.Apply(st, feed[off:off+chunk]); err != nil {
					t.Fatal(err)
				}
				want := tt.full
				if off > 0 && warm > 0 {
					want = warm
				}
				if st.Posterior.Rounds != want {
					t.Errorf("%s warm=%d batch at %d: ran %d rounds, want %d", tt.name, warm, off, st.Posterior.Rounds, want)
				}
			}
		}
	}
}

// TestCheckRefusesForeignState pins the State.Method contract in its one
// place: a state grown under another method, claim granularity, two-layer
// source level or shard count is refused — by Check, and by Apply before it
// touches the state, which is what covers journal replay onto a foreign
// snapshot.
func TestCheckRefusesForeignState(t *testing.T) {
	grown := func(c *Chain) *State {
		st := &State{}
		if err := c.Apply(st, testFeed(chunkLen)); err != nil {
			t.Fatal(err)
		}
		return st
	}
	site := fusion.PopAccuConfig()
	site.Granularity = fusion.GranExtractorSite
	siteLevel := twolayer.DefaultConfig()
	siteLevel.SiteLevel = true

	popaccu := ClaimChain("popaccu", fusion.PopAccuConfig(), 0, 1)
	twoLayer := TwoLayerChain(twolayer.DefaultConfig(), 0, 1)
	for _, tt := range []struct {
		name    string
		st      *State
		chain   *Chain
		refused string // substring of the refusal; "" = accepted
	}{
		{"same chain", grown(popaccu), popaccu, ""},
		{"empty state", &State{}, twoLayer, ""},
		{"same method, other rounds", grown(popaccu), ClaimChain("popaccu", fusion.PopAccuConfig(), 1, 1), ""},
		{"foreign claim method", grown(ClaimChain("vote", fusion.VoteConfig(), 0, 1)), popaccu, "method"},
		{"claim state under twolayer", grown(popaccu), twoLayer, "method"},
		{"twolayer state under claim", grown(twoLayer), popaccu, "method"},
		{"foreign granularity", grown(ClaimChain("popaccu", site, 0, 1)), popaccu, "granularity"},
		{"foreign site level", grown(TwoLayerChain(siteLevel, 0, 1)), twoLayer, "site-level"},
		{"sharded state under one graph", grown(ClaimChain("popaccu", fusion.PopAccuConfig(), 0, 3)), popaccu, "K=3 graphs, chain runs K=1"},
		{"one-graph state under K=3", grown(popaccu), ClaimChain("popaccu", fusion.PopAccuConfig(), 0, 3), "K=1 graphs, chain runs K=3"},
		{"sharded twolayer state under one graph", grown(TwoLayerChain(twolayer.DefaultConfig(), 0, 3)), twoLayer, "K=3 graphs, chain runs K=1"},
	} {
		before, method := stateFingerprint(t, tt.st), tt.st.Method
		for op, err := range map[string]error{
			"Check": tt.chain.Check(tt.st),
			"Apply": tt.chain.Apply(tt.st, testFeed(chunkLen)),
		} {
			if tt.refused == "" {
				if err != nil {
					t.Errorf("%s: %s refused its own state: %v", tt.name, op, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tt.refused) {
				t.Errorf("%s: %s = %v, want a %s refusal", tt.name, op, err, tt.refused)
			}
		}
		if tt.refused != "" && (tt.st.Method != method || !bytes.Equal(stateFingerprint(t, tt.st), before)) {
			t.Errorf("%s: refused Apply still changed the state", tt.name)
		}
	}
}

// growingFeed is a random stream whose subject space widens with the record
// index, so every batch both re-asserts known triples and brings new ones.
func growingFeed(seed int64, n int) []extract.Extraction {
	rng := rand.New(rand.NewSource(seed))
	out := noisyFeed(n)
	for i := range out {
		out[i].Triple.Subject = kb.EntityID(fmt.Sprintf("s%d", rng.Intn(10+i/4)))
	}
	return out
}

// TestTriplePositionsAreAppendStable pins what a consumer that indexes
// Result.Triples by position relies on (kfserved's read index does): along
// one chain, Apply only ever adds rows at the end — row i names the same
// triple in every later generation, for both engines — and a store closed,
// reopened and replayed (snapshot plus journaled batches) continues the same
// numbering.
func TestTriplePositionsAreAppendStable(t *testing.T) {
	const batch = 60
	feed := growingFeed(9, 12*batch)
	for name, chain := range map[string]*Chain{
		"popaccu":  ClaimChain("popaccu", fusion.PopAccuConfig(), 1, 1),
		"twolayer": TwoLayerChain(twolayer.DefaultConfig(), 1, 1),
	} {
		mem := faultfs.NewMem()
		store, st, err := OpenFS(mem, chain.Apply)
		if err != nil {
			t.Fatal(err)
		}
		var rows []kb.Triple // the numbering so far
		step := func(off int) {
			t.Helper()
			if err := store.Append(st, feed[off:off+batch]); err != nil {
				t.Fatal(err)
			}
			got := st.Fused().Triples
			if len(got) < len(rows) {
				t.Fatalf("%s: batch at %d shrank the result from %d to %d rows", name, off, len(rows), len(got))
			}
			for i, want := range rows {
				if got[i].Triple != want {
					t.Fatalf("%s: batch at %d moved row %d from %v to %v", name, off, i, want, got[i].Triple)
				}
			}
			for _, row := range got[len(rows):] {
				rows = append(rows, row.Triple)
			}
		}
		for off := 0; off < 6*batch; off += batch {
			step(off)
			if off == 2*batch { // leaves three journaled batches for the reopen to replay
				if err := store.Snapshot(st); err != nil {
					t.Fatal(err)
				}
			}
		}
		grown := len(rows)
		store.Close()

		if store, st, err = OpenFS(mem, chain.Apply); err != nil {
			t.Fatal(err)
		}
		if d := store.Degradations(); len(d) != 0 {
			t.Fatalf("%s: reopen degraded: %v", name, d)
		}
		if len(st.Fused().Triples) != grown {
			t.Fatalf("%s: reopened result has %d rows, the live one had %d", name, len(st.Fused().Triples), grown)
		}
		for i, want := range rows {
			if st.Fused().Triples[i].Triple != want {
				t.Fatalf("%s: reopen moved row %d from %v to %v", name, i, want, st.Fused().Triples[i].Triple)
			}
		}
		for off := 6 * batch; off < len(feed); off += batch {
			step(off)
		}
		store.Close()
		if len(rows) == grown {
			t.Fatalf("%s: scenario broken: no batch after the reopen added a triple", name)
		}
	}
}

// TestApplyLeavesTheNativeForm pins what Chain.Apply leaves on a state for
// both chains: the posterior in its native form and no exchange form; Fused
// materialises it once and remembers it until the next Apply clears it; and
// what it materialises is what the public FuseWarm chain — the chain's body
// before it kept posteriors — returns for the same batches, bit for bit.
func TestApplyLeavesTheNativeForm(t *testing.T) {
	const batch = 80
	feed := growingFeed(3, 8*batch)
	fc, tc := fusion.PopAccuPlusUnsupConfig(), twolayer.DefaultConfig()
	for name, chain := range map[string]*Chain{
		"popaccu+unsup": ClaimChain("popaccu+unsup", fc, 1, 1),
		"twolayer":      TwoLayerChain(tc, 1, 1),
	} {
		st := &State{}
		var want *fusion.Result // the public-API chain
		var claim *fusion.Compiled
		var ext *extract.Compiled
		var tl *twolayer.State
		for off := 0; off < len(feed); off += batch {
			xs := feed[off : off+batch]
			if err := chain.Apply(st, xs); err != nil {
				t.Fatal(err)
			}
			if st.Posterior == nil || st.Result != nil {
				t.Fatalf("%s: Apply left Posterior=%v Result=%v, want the native form alone", name, st.Posterior, st.Result)
			}
			fcfg, tcfg := fc, tc
			if off > 0 {
				fcfg.Rounds, tcfg.Rounds = 1, 1
			}
			var err error
			if name == "twolayer" {
				if ext == nil {
					ext = extract.Compile(xs, tc.SiteLevel)
				} else {
					ext = ext.Append(xs)
				}
				want, tl, err = twolayer.FuseCompiledWarm(ext, tcfg, tl)
			} else {
				if claim == nil {
					claim = fusion.CompileExtractions(xs, fc.Granularity, 0)
				} else if claim, err = claim.AppendExtractions(xs, fc.Granularity); err != nil {
					t.Fatal(err)
				}
				want, err = claim.FuseWarm(fcfg, want)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := st.Fused()
			if got == nil || st.Result != got || st.Fused() != got {
				t.Fatalf("%s: Fused did not remember the result it materialised", name)
			}
			if !reflect.DeepEqual(exported(got), exported(want)) {
				t.Fatalf("%s: batch at %d: Fused() differs from the public FuseWarm chain's result", name, off)
			}
		}
	}
}

// recoveryChains are the chains the recovery tests persist: both engines,
// and the claim engine over three shards, whose stored accuracies follow the
// key order a coordinator rebuilt from the shards assigns (rowGraphs).
func recoveryChains() map[string]*Chain {
	return map[string]*Chain{
		"popaccu+unsup":     ClaimChain("popaccu+unsup", fusion.PopAccuPlusUnsupConfig(), 1, 1),
		"popaccu+unsup K=3": ClaimChain("popaccu+unsup", fusion.PopAccuPlusUnsupConfig(), 1, 3),
		"twolayer":          TwoLayerChain(twolayer.DefaultConfig(), 1, 1),
	}
}

// detached copies a result's exported fields, slices and map included: a
// result fused through the public API, with no posterior behind it, which a
// test may damage without touching the chain's.
func detached(res *fusion.Result) *fusion.Result {
	return &fusion.Result{Triples: slices.Clone(res.Triples), Rounds: res.Rounds, ProvAccuracy: maps.Clone(res.ProvAccuracy), Unpredicted: res.Unpredicted}
}

// TestRecoveredPosterior covers the way back from a snapshot: a reopened
// state holds the posterior over the recovered graphs — the round count and
// every row and accuracy of the live one — and Result beside it as that
// posterior's materialisation, and the chain continues from it exactly as
// from the live state. Then the write side: a state whose Result was
// replaced by one that is not its graph's — another generation's, or one
// with a row, a count, a key or a value altered — is refused by Snapshot
// before it writes a byte.
func TestRecoveredPosterior(t *testing.T) {
	const batch = 90
	feed := growingFeed(11, 4*batch)
	for name, chain := range recoveryChains() {
		mem := faultfs.NewMem()
		store, live, err := OpenFS(mem, chain.Apply)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := store.Append(live, feed[i*batch:(i+1)*batch]); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Snapshot(live); err != nil {
			t.Fatal(err)
		}
		store.Close()
		store, st, err := OpenFS(mem, chain.Apply)
		if err != nil {
			t.Fatal(err)
		}
		store.Close()
		if st.Posterior == nil || st.Result == nil || st.Result.Seed() != st.Posterior.Seed() {
			t.Fatalf("%s: a state recovered from a snapshot holds Posterior=%v Result=%v, want the posterior and its materialisation", name, st.Posterior, st.Result)
		}
		if st.Posterior.Rounds != live.Posterior.Rounds || st.Posterior.Moves != nil {
			t.Fatalf("%s: recovered %d rounds and moves %v, the live posterior ran %d", name, st.Posterior.Rounds, st.Posterior.Moves, live.Posterior.Rounds)
		}
		if !reflect.DeepEqual(exported(st.Result), exported(live.Fused())) {
			t.Fatalf("%s: the recovered posterior is not the live one", name)
		}
		next := feed[3*batch:]
		if err := chain.Apply(st, next); err != nil {
			t.Fatal(err)
		}
		if err := chain.Apply(live, next); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exported(st.Fused()), exported(live.Fused())) {
			t.Fatalf("%s: the chain continues differently from a recovered state", name)
		}
	}

	for name, chain := range recoveryChains() {
		for _, tc := range []struct {
			what   string
			damage func(res, stale *fusion.Result) *fusion.Result
		}{
			{"an earlier generation's result", func(_, stale *fusion.Result) *fusion.Result { return stale }},
			{"a dropped accuracy key", func(res, _ *fusion.Result) *fusion.Result {
				delete(res.ProvAccuracy, sortedKeys(res.ProvAccuracy)[0])
				return res
			}},
			{"a foreign accuracy key", func(res, _ *fusion.Result) *fusion.Result {
				key := sortedKeys(res.ProvAccuracy)[0]
				res.ProvAccuracy["nobody|nowhere"] = res.ProvAccuracy[key]
				delete(res.ProvAccuracy, key)
				return res
			}},
			{"an altered support count", func(res, _ *fusion.Result) *fusion.Result { res.Triples[len(res.Triples)/2].Provenances++; return res }},
			{"an altered extractor count", func(res, _ *fusion.Result) *fusion.Result { res.Triples[0].Extractors++; return res }},
			{"a moved triple", func(res, _ *fusion.Result) *fusion.Result {
				res.Triples[0].Triple, res.Triples[1].Triple = res.Triples[1].Triple, res.Triples[0].Triple
				return res
			}},
			{"a probability flag that disagrees", func(res, _ *fusion.Result) *fusion.Result {
				res.Triples[1].Predicted = !res.Triples[1].Predicted
				return res
			}},
			{"an altered unpredicted count", func(res, _ *fusion.Result) *fusion.Result { res.Unpredicted++; return res }},
			{"a dropped row", func(res, _ *fusion.Result) *fusion.Result { res.Triples = res.Triples[:len(res.Triples)-1]; return res }},
			{"a NaN probability", func(res, _ *fusion.Result) *fusion.Result { res.Triples[0].Probability = math.NaN(); return res }},
			{"a probability of 1.5", func(res, _ *fusion.Result) *fusion.Result { res.Triples[0].Probability = 1.5; return res }},
			{"an accuracy of -0.1", func(res, _ *fusion.Result) *fusion.Result {
				res.ProvAccuracy[sortedKeys(res.ProvAccuracy)[0]] = -0.1
				return res
			}},
		} {
			mem := faultfs.NewMem()
			store, st, err := OpenFS(mem, chain.Apply)
			if err != nil {
				t.Fatal(err)
			}
			var stale *fusion.Result
			for i := 0; i < 3; i++ {
				if err := store.Append(st, feed[i*batch:(i+1)*batch]); err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					stale = detached(st.Fused())
				}
			}
			st.Result = tc.damage(detached(st.Fused()), stale)
			before := files(t, mem)
			if err := store.Snapshot(st); err == nil || !strings.Contains(err.Error(), "not its graph's") {
				t.Errorf("%s: Snapshot of a state holding %s = %v, want a refusal", name, tc.what, err)
			}
			if !reflect.DeepEqual(files(t, mem), before) {
				t.Errorf("%s: the refused snapshot of a state holding %s wrote to the store", name, tc.what)
			}
			store.Close()
		}
	}
}

// TestPublicFuseResultIsStored reproduces an ApplyFunc that fuses through the
// public API, as the benchmark's write-path replica does: it opens a store the
// chain wrote, warm-fuses each batch with Compiled.FuseWarm from st.Result and
// replaces only st.Result, so the decoded posterior goes stale beside it. A
// snapshot must store the newest result — converted back to the native form
// against the graph — and a reopen must recover exactly that.
func TestPublicFuseResultIsStored(t *testing.T) {
	const batch = 90
	feed := growingFeed(5, 5*batch)
	cfg := fusion.PopAccuConfig()
	chain := ClaimChain("popaccu", cfg, 1, 1)
	mem := faultfs.NewMem()
	store, st, err := OpenFS(mem, chain.Apply)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := store.Append(st, feed[i*batch:(i+1)*batch]); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	store.Close()

	warm := cfg
	warm.Rounds = 1
	public := func(st *State, b []extract.Extraction) error {
		next, err := st.Claim.AppendExtractions(b, cfg.Granularity)
		if err != nil {
			return err
		}
		st.Claim = next
		st.Result, err = st.Claim.FuseWarm(warm, st.Result)
		return err
	}
	store, st, err = OpenFS(mem, public)
	if err != nil {
		t.Fatal(err)
	}
	decoded := st.Posterior
	for i := 2; i < 5; i++ {
		if err := store.Append(st, feed[i*batch:(i+1)*batch]); err != nil {
			t.Fatal(err)
		}
	}
	if st.Posterior != decoded || st.Result.Seed() == decoded.Seed() {
		t.Fatal("scenario broken: the replica's result is its posterior's")
	}
	want := exported(st.Result)
	if err := store.Snapshot(st); err != nil {
		t.Fatalf("snapshot of the public API's result: %v", err)
	}
	store.Close()

	store, st, err = OpenFS(mem, chain.Apply)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	if d := store.Degradations(); len(d) != 0 || st.Batches != 5 {
		t.Fatalf("reopen recovered %d batches, degraded: %v", st.Batches, d)
	}
	if !reflect.DeepEqual(exported(st.Posterior.Result()), want) {
		t.Fatal("the reopened posterior is not the newest result")
	}
}

// TestRecoveredResultValuesAreValidated covers the decode side: a snapshot
// whose posterior columns are not its graph's — a column of the wrong length,
// a NaN or out-of-range probability, an accuracy below 0 (damagedPosteriors)
// — is corrupt, whatever its checksums say, and the open falls back one rung:
// the snapshot is deleted, and the previous one plus the journal behind it
// recover the state the chain wrote.
func TestRecoveredResultValuesAreValidated(t *testing.T) {
	const batch = 90
	feed := growingFeed(11, 3*batch)
	for name, chain := range recoveryChains() {
		mem := faultfs.NewMem()
		store, live, err := OpenFS(mem, chain.Apply)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := store.Append(live, feed[i*batch:(i+1)*batch]); err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				if err := store.Snapshot(live); err != nil {
					t.Fatal(err)
				}
			}
		}
		store.Close()
		want := exported(live.Fused())
		names, err := mem.List()
		if err != nil {
			t.Fatal(err)
		}
		newest := snapNames(names, nil)[0]
		honest, err := mem.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		whats, damaged := damagedPosteriors(t, honest)
		for i, data := range damaged {
			m := mem.Clone()
			f, err := m.Create(newest)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(data); err != nil {
				t.Fatal(err)
			}
			f.Close()
			store, st, err := OpenFS(m, chain.Apply)
			if err != nil {
				t.Fatalf("%s, %s: reopen: %v", name, whats[i], err)
			}
			store.Close()
			if d := store.Degradations(); len(d) == 0 || !strings.Contains(d[0], newest) || !strings.Contains(d[0], "corrupt") {
				t.Errorf("%s, %s: degradations %v, want %s rejected as corrupt", name, whats[i], d, newest)
			}
			if _, err := m.ReadFile(newest); err == nil {
				t.Errorf("%s, %s: the corrupt snapshot was kept", name, whats[i])
			}
			if !reflect.DeepEqual(exported(st.Fused()), want) {
				t.Errorf("%s, %s: the fallback recovered another posterior", name, whats[i])
			}
		}
	}
}

// TestRecoveredTwoLayerStateIsValidated covers the other recovered half of a
// two-layer state: the warm-start parameters. A snapshot is outside input,
// and nothing downstream looks at these values again — a short vector is
// silently padded with the initial values, a NaN accuracy passes every
// clamp, a rate of 0 or beyond goes into a logarithm — so the chain refuses
// them where a recovered state is first used: Check (which Apply, and so a
// replayed or a live batch, runs first). A state the chain wrote itself
// passes, also when the open replays journaled batches onto it.
func TestRecoveredTwoLayerStateIsValidated(t *testing.T) {
	const batch = 90
	feed := growingFeed(11, 6*batch)
	chain := TwoLayerChain(twolayer.DefaultConfig(), 1, 1)
	// recovered is the state after three batches and a snapshot, with
	// `journaled` more batches behind the snapshot, as a reopen finds it; the
	// snapshot's parameters go through damage first.
	recovered := func(journaled int, damage func(tl *twolayer.State)) (*State, error) {
		mem := faultfs.NewMem()
		store, st, err := OpenFS(mem, chain.Apply)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3+journaled; i++ {
			if err := store.Append(st, feed[i*batch:(i+1)*batch]); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				// Only the snapshot sees the damage; the live chain goes on
				// from what it computed.
				live := st.TL
				if damage != nil {
					st.TL = &twolayer.State{SrcAcc: slices.Clone(live.SrcAcc), Recall: slices.Clone(live.Recall), FalsePos: slices.Clone(live.FalsePos)}
					damage(st.TL)
				}
				if err := store.Snapshot(st); err != nil {
					t.Fatal(err)
				}
				st.TL = live
			}
		}
		store.Close()
		store, st, err = OpenFS(mem, chain.Apply)
		if err == nil {
			store.Close()
		}
		return st, err
	}

	for _, journaled := range []int{0, 2} {
		st, err := recovered(journaled, nil)
		if err != nil {
			t.Fatalf("reopening the chain's own state with %d journaled batches: %v", journaled, err)
		}
		if err := chain.Check(st); err != nil {
			t.Fatalf("Check refused the chain's own state (%d journaled): %v", journaled, err)
		}
		if err := chain.Apply(st, feed[(3+journaled)*batch:(4+journaled)*batch]); err != nil {
			t.Fatalf("the chain does not continue from its own recovered state: %v", err)
		}
	}

	for _, tc := range []struct {
		what   string
		damage func(tl *twolayer.State)
	}{
		{"a short accuracy vector", func(tl *twolayer.State) { tl.SrcAcc = tl.SrcAcc[:len(tl.SrcAcc)-1] }},
		{"a long accuracy vector", func(tl *twolayer.State) { tl.SrcAcc = append(tl.SrcAcc, 0.8) }},
		{"a short recall vector", func(tl *twolayer.State) { tl.Recall = tl.Recall[:len(tl.Recall)-1] }},
		{"a long false-positive vector", func(tl *twolayer.State) { tl.FalsePos = append(tl.FalsePos, 0.1) }},
		{"a NaN accuracy", func(tl *twolayer.State) { tl.SrcAcc[1] = math.NaN() }},
		{"an infinite accuracy", func(tl *twolayer.State) { tl.SrcAcc[0] = math.Inf(1) }},
		{"a negative-infinite recall", func(tl *twolayer.State) { tl.Recall[0] = math.Inf(-1) }},
		{"an accuracy above 1", func(tl *twolayer.State) { tl.SrcAcc[2] = 1.25 }},
		{"a recall of 0", func(tl *twolayer.State) { tl.Recall[1] = 0 }},
		{"a false-positive rate of 1.5", func(tl *twolayer.State) { tl.FalsePos[0] = 1.5 }},
		{"a NaN false-positive rate", func(tl *twolayer.State) { tl.FalsePos[1] = math.NaN() }},
	} {
		st, err := recovered(0, tc.damage)
		if err != nil {
			t.Fatalf("%s: a snapshot-only reopen runs no chain code, yet: %v", tc.what, err)
		}
		before, post := stateFingerprint(t, st), st.Posterior
		for op, err := range map[string]error{
			"Check": chain.Check(st),
			"Apply": chain.Apply(st, feed[3*batch:4*batch]),
		} {
			if err == nil || !strings.Contains(err.Error(), "not its graph's") {
				t.Errorf("%s: %s = %v, want the refusal a foreign result gets", tc.what, op, err)
			}
		}
		if st.Posterior != post || !bytes.Equal(stateFingerprint(t, st), before) {
			t.Errorf("%s: a refused state was changed", tc.what)
		}
		// With batches journaled behind the damaged snapshot the open itself
		// replays them through Apply, and must not get past the first.
		if _, err := recovered(2, tc.damage); err == nil || !strings.Contains(err.Error(), "not its graph's") {
			t.Errorf("%s: reopen with journaled batches = %v, want the replay refused", tc.what, err)
		}
	}
}
