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

// TestAdoptRecoveredResult covers the way back: a state recovered from a
// snapshot holds its posterior in exchange form, and Adopt gives it the
// native form — which must materialise to exactly the decoded result — or
// refuses, for both chains, a result that is not its graph's: paired with an
// earlier or later generation's graph, missing an accuracy key, holding a
// foreign one, or with an altered support count, probability flag or
// unpredicted count.
func TestAdoptRecoveredResult(t *testing.T) {
	const batch = 90
	feed := growingFeed(11, 4*batch)
	for name, chain := range map[string]*Chain{
		"popaccu+unsup": ClaimChain("popaccu+unsup", fusion.PopAccuPlusUnsupConfig(), 1, 1),
		"twolayer":      TwoLayerChain(twolayer.DefaultConfig(), 1, 1),
	} {
		// recovered(n) is the state after n batches as a reopen finds it.
		recovered := func(n int) *State {
			mem := faultfs.NewMem()
			store, st, err := OpenFS(mem, chain.Apply)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := store.Append(st, feed[i*batch:(i+1)*batch]); err != nil {
					t.Fatal(err)
				}
			}
			if err := store.Snapshot(st); err != nil {
				t.Fatal(err)
			}
			store.Close()
			store, st, err = OpenFS(mem, chain.Apply)
			if err != nil {
				t.Fatal(err)
			}
			store.Close()
			if st.Posterior != nil || st.Result == nil {
				t.Fatalf("%s: a state recovered from a snapshot alone holds Posterior=%v Result=%v", name, st.Posterior, st.Result)
			}
			return st
		}

		st := recovered(3)
		dec := st.Result
		if err := chain.Adopt(st); err != nil {
			t.Fatalf("%s: adopting a recovered state: %v", name, err)
		}
		if st.Posterior == nil || st.Result != dec {
			t.Fatalf("%s: Adopt left Posterior=%v and replaced the decoded result: %v", name, st.Posterior, st.Result != dec)
		}
		if got := st.Posterior.Result(); !reflect.DeepEqual(exported(got), exported(dec)) {
			t.Fatalf("%s: decode → posterior → Result() is not the decoded result", name)
		}
		if err := chain.Adopt(st); err != nil || st.Result != dec {
			t.Fatalf("%s: adopting twice: %v", name, err)
		}
		// The adopted state continues the chain exactly as the unadopted one.
		plain := recovered(3)
		next := feed[3*batch : 4*batch]
		if err := chain.Apply(st, next); err != nil {
			t.Fatal(err)
		}
		if err := chain.Apply(plain, next); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exported(st.Fused()), exported(plain.Fused())) {
			t.Fatalf("%s: the chain continues differently from an adopted state", name)
		}

		for _, tc := range []struct {
			what   string
			damage func(st *State)
		}{
			{"an earlier generation's graph", func(st *State) { older := recovered(2); st.Claim, st.Ext = older.Claim, older.Ext }},
			{"a later generation's graph", func(st *State) { newer := recovered(4); st.Claim, st.Ext = newer.Claim, newer.Ext }},
			{"no graph", func(st *State) { st.Claim, st.Ext = nil, nil }},
			{"a dropped accuracy key", func(st *State) {
				for k := range st.Result.ProvAccuracy {
					delete(st.Result.ProvAccuracy, k)
					return
				}
			}},
			{"a foreign accuracy key", func(st *State) {
				for k, v := range st.Result.ProvAccuracy {
					delete(st.Result.ProvAccuracy, k)
					st.Result.ProvAccuracy["nobody|nowhere"] = v
					return
				}
			}},
			{"an altered support count", func(st *State) { st.Result.Triples[len(st.Result.Triples)/2].Provenances++ }},
			{"an altered extractor count", func(st *State) { st.Result.Triples[0].Extractors++ }},
			{"a moved triple", func(st *State) {
				rows := st.Result.Triples
				rows[0].Triple, rows[1].Triple = rows[1].Triple, rows[0].Triple
			}},
			{"a probability flag that disagrees", func(st *State) { st.Result.Triples[1].Predicted = !st.Result.Triples[1].Predicted }},
			{"an altered unpredicted count", func(st *State) { st.Result.Unpredicted++ }},
			{"a dropped row", func(st *State) { st.Result.Triples = st.Result.Triples[:len(st.Result.Triples)-1] }},
		} {
			st := recovered(3)
			tc.damage(st)
			if err := chain.Adopt(st); err == nil || st.Posterior != nil {
				t.Errorf("%s: Adopt accepted a result with %s (err %v)", name, tc.what, err)
			}
		}
	}
}

// TestRecoveredResultValuesAreValidated covers what Adopt's pairing with the
// graph used to skip and the replay path never reached: the numbers of a
// recovered result. Apply seeds the next warm round from a snapshot's
// accuracies by key, so a NaN or out-of-range one would flow into every later
// generation; a probability that is not -1 or in [0,1], or a Predicted flag
// that disagrees with the sentinel, would be served. The chain refuses them
// where a recovered state is first used — Check (which Apply, and so a replayed
// or a live batch, runs first) and Adopt — with the error a foreign result
// gets. A state the chain wrote itself passes, also when the open replays
// journaled batches onto it.
func TestRecoveredResultValuesAreValidated(t *testing.T) {
	const batch = 90
	feed := growingFeed(11, 6*batch)
	for name, chain := range map[string]*Chain{
		"popaccu+unsup": ClaimChain("popaccu+unsup", fusion.PopAccuPlusUnsupConfig(), 1, 1),
		"twolayer":      TwoLayerChain(twolayer.DefaultConfig(), 1, 1),
	} {
		// recovered is the state after three batches and a snapshot, with
		// `journaled` more batches behind the snapshot, as a reopen finds it;
		// the snapshot's result goes through damage first.
		recovered := func(journaled int, damage func(res *fusion.Result)) (*State, error) {
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
					// Only the snapshot sees the damage; the live chain goes
					// on from what it computed.
					post, res := st.Posterior, st.Result
					if damage != nil {
						good := st.Fused()
						bad := exported(good)
						bad.Triples = slices.Clone(good.Triples)
						bad.ProvAccuracy = maps.Clone(good.ProvAccuracy)
						damage(bad)
						st.Posterior, st.Result = nil, bad
					}
					if err := store.Snapshot(st); err != nil {
						t.Fatal(err)
					}
					st.Posterior, st.Result = post, res
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
				t.Fatalf("%s: reopening the chain's own state with %d journaled batches: %v", name, journaled, err)
			}
			if err := chain.Check(st); err != nil {
				t.Fatalf("%s: Check refused the chain's own state (%d journaled): %v", name, journaled, err)
			}
			if err := chain.Adopt(st); err != nil || st.Posterior == nil {
				t.Fatalf("%s: Adopt refused the chain's own state (%d journaled): %v", name, journaled, err)
			}
			if err := chain.Apply(st, feed[(3+journaled)*batch:(4+journaled)*batch]); err != nil {
				t.Fatalf("%s: the chain does not continue from its own recovered state: %v", name, err)
			}
		}

		predicted := func(res *fusion.Result) *fusion.FusedTriple {
			for i := range res.Triples {
				if res.Triples[i].Predicted {
					return &res.Triples[i]
				}
			}
			t.Fatalf("%s: no predicted row to damage", name)
			return nil
		}
		firstKey := func(res *fusion.Result) string {
			keys := make([]string, 0, len(res.ProvAccuracy))
			for k := range res.ProvAccuracy {
				keys = append(keys, k)
			}
			return slices.Min(keys)
		}
		for _, tc := range []struct {
			what   string
			damage func(res *fusion.Result)
		}{
			{"a NaN probability", func(res *fusion.Result) { predicted(res).Probability = math.NaN() }},
			{"an infinite probability", func(res *fusion.Result) { predicted(res).Probability = math.Inf(1) }},
			{"a probability of 1.5", func(res *fusion.Result) { predicted(res).Probability = 1.5 }},
			{"a probability of -0.5", func(res *fusion.Result) { predicted(res).Probability = -0.5 }},
			{"a predicted row holding the sentinel", func(res *fusion.Result) { predicted(res).Probability = -1 }},
			{"a NaN accuracy", func(res *fusion.Result) { res.ProvAccuracy[firstKey(res)] = math.NaN() }},
			{"an accuracy of -0.1", func(res *fusion.Result) { res.ProvAccuracy[firstKey(res)] = -0.1 }},
			{"an accuracy of 1.5", func(res *fusion.Result) { res.ProvAccuracy[firstKey(res)] = 1.5 }},
		} {
			st, err := recovered(0, tc.damage)
			if err != nil {
				t.Fatalf("%s, %s: a snapshot-only reopen runs no chain code, yet: %v", name, tc.what, err)
			}
			graphBefore := [2]any{st.Claim, st.Ext}
			for op, err := range map[string]error{
				"Check": chain.Check(st),
				"Adopt": chain.Adopt(st),
				"Apply": chain.Apply(st, feed[3*batch:4*batch]),
			} {
				if err == nil || !strings.Contains(err.Error(), "not its graph's") {
					t.Errorf("%s, %s: %s = %v, want the refusal a foreign result gets", name, tc.what, op, err)
				}
			}
			if st.Posterior != nil || graphBefore != [2]any{st.Claim, st.Ext} {
				t.Errorf("%s, %s: a refused state was changed", name, tc.what)
			}
			// With batches journaled behind the damaged snapshot the open
			// itself replays them through Apply, and must not get past the
			// first.
			if _, err := recovered(2, tc.damage); err == nil || !strings.Contains(err.Error(), "not its graph's") {
				t.Errorf("%s, %s: reopen with journaled batches = %v, want the replay refused", name, tc.what, err)
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
// replayed or a live batch, runs first) and Adopt. A state the chain wrote
// itself passes, also when the open replays journaled batches onto it.
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
		if err := chain.Adopt(st); err != nil || st.Posterior == nil {
			t.Fatalf("Adopt refused the chain's own state (%d journaled): %v", journaled, err)
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
		before := stateFingerprint(t, st)
		for op, err := range map[string]error{
			"Check": chain.Check(st),
			"Adopt": chain.Adopt(st),
			"Apply": chain.Apply(st, feed[3*batch:4*batch]),
		} {
			if err == nil || !strings.Contains(err.Error(), "not its graph's") {
				t.Errorf("%s: %s = %v, want the refusal a foreign result gets", tc.what, op, err)
			}
		}
		if st.Posterior != nil || !bytes.Equal(stateFingerprint(t, st), before) {
			t.Errorf("%s: a refused state was changed", tc.what)
		}
		// With batches journaled behind the damaged snapshot the open itself
		// replays them through Apply, and must not get past the first.
		if _, err := recovered(2, tc.damage); err == nil || !strings.Contains(err.Error(), "not its graph's") {
			t.Errorf("%s: reopen with journaled batches = %v, want the replay refused", tc.what, err)
		}
	}
}
