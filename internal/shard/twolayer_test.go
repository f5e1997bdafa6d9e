package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/twolayer"
)

func twoLayerConfig() twolayer.Config {
	cfg := twolayer.DefaultConfig()
	cfg.Workers = 1
	return cfg
}

func shardedTwoLayer(t *testing.T, xs []extract.Extraction, k int, cfg twolayer.Config) (*TwoLayer, *twolayerResult) {
	t.Helper()
	tl, err := NewTwoLayer(k, cfg.SiteLevel)
	if err != nil {
		t.Fatal(err)
	}
	tl.Append(xs)
	res, state, err := tl.Fuse(cfg)
	if err != nil {
		t.Fatalf("sharded two-layer K=%d: %v", k, err)
	}
	return tl, &twolayerResult{res: res, state: state}
}

type twolayerResult struct {
	res   *fusion.Result
	state *twolayer.State
}

// TestTwoLayerShardOneBitIdentical pins the K=1 anchor: one shard is
// bit-for-bit the unsharded compiled engine, including the returned State.
func TestTwoLayerShardOneBitIdentical(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(21)), 4000)
	for _, siteLevel := range []bool{false, true} {
		cfg := twoLayerConfig()
		cfg.SiteLevel = siteLevel
		g := extract.Compile(xs, siteLevel)
		want, wantState, err := twolayer.FuseCompiledWarm(g, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, got := shardedTwoLayer(t, xs, 1, cfg)
		requireBitIdentical(t, fmt.Sprintf("twolayer/site=%v/K=1", siteLevel), want, got.res)
		requireSameState(t, "K=1", wantState, got.state)
	}
}

// TestTwoLayerShardCountIndependence pins the K>1 policy for the two-layer
// model: K in {2,4} agrees with K=1 exactly on integers and within RefTol
// on floats. The two-layer merge crosses shards twice per round (source
// evidence and extractor rates) plus the ghost-miss correction, so this is
// the strongest exercise of the documented tolerance.
func TestTwoLayerShardCountIndependence(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(22)), 4000)
	cfg := twoLayerConfig()
	_, want := shardedTwoLayer(t, xs, 1, cfg)
	for _, k := range []int{2, 4} {
		_, got := shardedTwoLayer(t, xs, k, cfg)
		requireCloseToReference(t, fmt.Sprintf("twolayer/K=%d", k), want.res, got.res)
	}
}

// TestTwoLayerShardWorkerIndependence: for a fixed K, results are
// bit-identical for any Workers value.
func TestTwoLayerShardWorkerIndependence(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(23)), 3000)
	cfg := twoLayerConfig()
	_, want := shardedTwoLayer(t, xs, 3, cfg)
	for _, workers := range []int{2, 7} {
		cfg.Workers = workers
		_, got := shardedTwoLayer(t, xs, 3, cfg)
		requireBitIdentical(t, fmt.Sprintf("twolayer/workers=%d", workers), want.res, got.res)
		requireSameState(t, fmt.Sprintf("workers=%d", workers), want.state, got.state)
	}
}

// TestTwoLayerShardAppendVsOneShot: chunked appends fuse bit-identically to
// one append of the whole feed, for K=1 and K>1.
func TestTwoLayerShardAppendVsOneShot(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(24)), 4000)
	cfg := twoLayerConfig()
	for _, k := range []int{1, 3} {
		_, want := shardedTwoLayer(t, xs, k, cfg)
		tl, err := NewTwoLayer(k, cfg.SiteLevel)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(xs); lo += 900 {
			hi := lo + 900
			if hi > len(xs) {
				hi = len(xs)
			}
			tl.Append(xs[lo:hi])
		}
		res, state, err := tl.Fuse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("twolayer/K=%d chunked", k), want.res, res)
		requireSameState(t, fmt.Sprintf("K=%d chunked", k), want.state, state)
	}
}

// TestTwoLayerShardWarm: the returned State warm-starts the next generation;
// at K=1 this matches the unsharded warm path bit-for-bit.
func TestTwoLayerShardWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	xs := testExtractions(rng, 3500)
	batch := testExtractions(rng, 700)
	cfg := twoLayerConfig()

	g := extract.Compile(xs, cfg.SiteLevel)
	_, prevState, err := twolayer.FuseCompiledWarm(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	g = g.Append(batch)
	want, _, err := twolayer.FuseCompiledWarm(g, cfg, prevState)
	if err != nil {
		t.Fatal(err)
	}

	tl, first := func() (*TwoLayer, *twolayerResult) {
		tl, r := shardedTwoLayer(t, xs, 1, cfg)
		return tl, r
	}()
	requireSameState(t, "warm/prev", prevState, first.state)
	tl.Append(batch)
	got, _, err := tl.FuseWarm(cfg, first.state)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "twolayer/warm/K=1", want, got)
}

func requireSameState(t *testing.T, tag string, want, got *twolayer.State) {
	t.Helper()
	if len(want.SrcAcc) != len(got.SrcAcc) || len(want.Recall) != len(got.Recall) || len(want.FalsePos) != len(got.FalsePos) {
		t.Fatalf("%s: state sizes differ", tag)
	}
	for i := range want.SrcAcc {
		if want.SrcAcc[i] != got.SrcAcc[i] {
			t.Fatalf("%s: SrcAcc[%d] = %v, want %v", tag, i, got.SrcAcc[i], want.SrcAcc[i])
		}
	}
	for i := range want.Recall {
		if want.Recall[i] != got.Recall[i] || want.FalsePos[i] != got.FalsePos[i] {
			t.Fatalf("%s: extractor %d rates differ", tag, i)
		}
	}
}

// wideningBatch draws n records of a small colliding world that widens with
// step — more sites, more subjects, a growing extractor fleet — so later
// batches keep pairing old sources with extractors new to them, in this shard
// or in another one (which changes the source's ghost list here).
func wideningBatch(rng *rand.Rand, n, step int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	for i := range xs {
		site := fmt.Sprintf("site%d", rng.Intn(4+step/5))
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(20+step))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(3))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(4))),
			},
			Extractor:  fmt.Sprintf("E%d", rng.Intn(3+step/6)),
			URL:        fmt.Sprintf("http://%s/page%d", site, rng.Intn(6)),
			Site:       site,
			Confidence: -1,
		}
	}
	return xs
}

// stateViaCodec is the State as a snapshot would bring it back: the three
// vectors, no engines. nil stays nil.
func stateViaCodec(t *testing.T, st *twolayer.State) *twolayer.State {
	t.Helper()
	if st == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := twolayer.EncodeState(&buf, st); err != nil {
		t.Fatal(err)
	}
	dec, err := twolayer.DecodeState(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// requireSamePosterior compares two runs' native outputs bit for bit.
func requireSamePosterior(t *testing.T, tag string, got, want *fusion.Posterior, gotSt, wantSt *twolayer.State) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Len() != want.Len() {
		t.Fatalf("%s: %d rounds over %d rows, want %d over %d", tag, got.Rounds, got.Len(), want.Rounds, want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if math.Float64bits(got.Prob(i)) != math.Float64bits(want.Prob(i)) {
			t.Fatalf("%s: row %d (%v): probability %v, want %v", tag, i, got.Triple(i), got.Prob(i), want.Prob(i))
		}
	}
	requireSameState(t, tag, wantSt, gotSt)
}

// TestTwoLayerCarriedChainMatchesFresh is the coordinator's half of the
// carried-≡-fresh suite (internal/twolayer holds the unsharded half and the
// dirty-pass counters): at K = 1 and 4, both source levels and Workers 1 and
// 4, a 30-step warm chain under cycled round budgets and random batch sizes
// — empty batches and shards that receive nothing included — whose States
// are handed on live equals, bit for bit at every step, the chain whose
// States only ever pass through the codec. At K = 4 a
// batch that reaches another shard changes this shard's ghost lists, which
// the carried E-step has to notice from the miss bases alone.
func TestTwoLayerCarriedChainMatchesFresh(t *testing.T) {
	budgets := []int{5, 1, 3, 1, 1, 3, 2, 1}
	for _, k := range []int{1, 4} {
		for _, siteLevel := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				tag := fmt.Sprintf("K=%d site=%v workers=%d", k, siteLevel, workers)
				cold := twolayer.DefaultConfig()
				cold.SiteLevel, cold.Workers = siteLevel, workers
				rng := rand.New(rand.NewSource(71))
				tl, err := NewTwoLayer(k, siteLevel)
				if err != nil {
					t.Fatal(err)
				}
				tl.Append(wideningBatch(rng, 600, 0))
				_, carried, err := tl.FusePosterior(cold, nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh := carried
				for step := 0; step < 30; step++ {
					n := rng.Intn(80)
					if step%7 == 3 {
						n = 0
					}
					tl.Append(wideningBatch(rng, n, step))
					cfg := cold
					cfg.Rounds = budgets[step%len(budgets)]
					freshPost, freshSt, err := tl.FusePosterior(cfg, stateViaCodec(t, fresh))
					if err != nil {
						t.Fatal(err)
					}
					carriedPost, carriedSt, err := tl.FusePosterior(cfg, carried)
					if err != nil {
						t.Fatal(err)
					}
					requireSamePosterior(t, fmt.Sprintf("%s step %d", tag, step), carriedPost, freshPost, carriedSt, freshSt)
					carried, fresh = carriedSt, freshSt
				}
			}
		}
	}
}

// TestTwoLayerReseedAcrossShardCounts hands a live K = 4 State — four
// engines, each holding its shard's last E-step — to a K = 1 coordinator over
// the same feed, and back: the engines do not fit and are not taken, and the
// run equals the one seeded through the codec.
func TestTwoLayerReseedAcrossShardCounts(t *testing.T) {
	cfg := twolayer.DefaultConfig()
	cfg.Rounds = 1
	rng := rand.New(rand.NewSource(8))
	head, batch := wideningBatch(rng, 900, 10), wideningBatch(rng, 60, 12)
	build := func(k int) *TwoLayer {
		tl, err := NewTwoLayer(k, cfg.SiteLevel)
		if err != nil {
			t.Fatal(err)
		}
		tl.Append(head)
		return tl
	}
	for _, ks := range [][2]int{{4, 1}, {1, 4}} {
		from, to := build(ks[0]), build(ks[1])
		_, st, err := from.FusePosterior(twolayer.DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, st, err = from.FusePosterior(cfg, st); err != nil { // a seeded run: st carries engines
			t.Fatal(err)
		}
		// The two coordinators number sources and extractors alike only if
		// they intern in the same order; K = 1 is the feed's own order, and a
		// State is indexed by whatever table it came from — so reseeding
		// across K is meaningful through the codec too, and that is the
		// reference here.
		to.Append(batch)
		want, wantSt, err := to.FusePosterior(cfg, stateViaCodec(t, st))
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := to.FusePosterior(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePosterior(t, fmt.Sprintf("K=%d→K=%d", ks[0], ks[1]), got, want, gotSt, wantSt)
		// The State still fits the coordinator it came from.
		from.Append(batch)
		want, wantSt, err = from.FusePosterior(cfg, stateViaCodec(t, st))
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err = from.FusePosterior(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePosterior(t, fmt.Sprintf("K=%d after the detour", ks[0]), got, want, gotSt, wantSt)
	}
}
