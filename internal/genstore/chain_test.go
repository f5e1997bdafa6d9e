package genstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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
	chain := testChain()
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
	if !reflect.DeepEqual(reopened.Claim.MustFuse(cfg), oneShot.MustFuse(cfg)) {
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
		{"claim", func(warm int) *Chain { return ClaimChain("popaccu", fc, warm) }, fc.Rounds},
		{"twolayer", func(warm int) *Chain { return TwoLayerChain(tc, warm) }, tc.Rounds},
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
				if st.Result.Rounds != want {
					t.Errorf("%s warm=%d batch at %d: ran %d rounds, want %d", tt.name, warm, off, st.Result.Rounds, want)
				}
			}
		}
	}
}

// TestCheckRefusesForeignState pins the State.Method contract in its one
// place: a state grown under another method, claim granularity or two-layer
// source level is refused — by Check, and by Grow before it touches the
// state, which is what covers journal replay onto a foreign snapshot.
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

	popaccu := ClaimChain("popaccu", fusion.PopAccuConfig(), 0)
	twoLayer := TwoLayerChain(twolayer.DefaultConfig(), 0)
	for _, tt := range []struct {
		name    string
		st      *State
		chain   *Chain
		refused string // substring of the refusal; "" = accepted
	}{
		{"same chain", grown(popaccu), popaccu, ""},
		{"empty state", &State{}, twoLayer, ""},
		{"same method, other rounds", grown(popaccu), ClaimChain("popaccu", fusion.PopAccuConfig(), 1), ""},
		{"foreign claim method", grown(ClaimChain("vote", fusion.VoteConfig(), 0)), popaccu, "method"},
		{"claim state under twolayer", grown(popaccu), twoLayer, "method"},
		{"twolayer state under claim", grown(twoLayer), popaccu, "method"},
		{"foreign granularity", grown(ClaimChain("popaccu", site, 0)), popaccu, "granularity"},
		{"foreign site level", grown(TwoLayerChain(siteLevel, 0)), twoLayer, "site-level"},
	} {
		before, method := stateFingerprint(t, tt.st), tt.st.Method
		for op, err := range map[string]error{
			"Check": tt.chain.Check(tt.st),
			"Grow":  tt.chain.Grow(tt.st, nil),
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
			t.Errorf("%s: refused Grow still changed the state", tt.name)
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
		"popaccu":  ClaimChain("popaccu", fusion.PopAccuConfig(), 1),
		"twolayer": TwoLayerChain(twolayer.DefaultConfig(), 1),
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
			got := st.Result.Triples
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
		if len(st.Result.Triples) != grown {
			t.Fatalf("%s: reopened result has %d rows, the live one had %d", name, len(st.Result.Triples), grown)
		}
		for i, want := range rows {
			if st.Result.Triples[i].Triple != want {
				t.Fatalf("%s: reopen moved row %d from %v to %v", name, i, want, st.Result.Triples[i].Triple)
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
