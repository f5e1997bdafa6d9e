package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

// exported copies a result down to its exported fields, the part
// reflect.DeepEqual may compare: a materialised result also points back to
// the seed (and through it the engines) of the posterior it came from.
func exported(res *fusion.Result) *fusion.Result {
	return &fusion.Result{Triples: res.Triples, Rounds: res.Rounds, ProvAccuracy: res.ProvAccuracy, Unpredicted: res.Unpredicted}
}

// requirePosteriorIsExchangeForm checks one generation: post is what the
// chain that keeps posteriors returned, viaDecoded what the chain seeded
// only through decoded snapshots returned. The posterior must assemble, row
// by row, exactly the rows it materialises, materialise the same exchange
// form every time, and that form must equal the other chain's on every
// exported field.
func requirePosteriorIsExchangeForm(t *testing.T, tag string, post *fusion.Posterior, viaDecoded *fusion.Result) {
	t.Helper()
	native := post.Result()
	if post.Len() != len(native.Triples) || post.Rounds != native.Rounds || post.Unpredicted != native.Unpredicted {
		t.Fatalf("%s: posterior has %d rows, %d rounds, %d unpredicted; its result %d, %d, %d",
			tag, post.Len(), post.Rounds, post.Unpredicted, len(native.Triples), native.Rounds, native.Unpredicted)
	}
	for i, want := range native.Triples {
		if got := post.Row(i); got != want {
			t.Fatalf("%s: Row(%d) = %+v, Result().Triples[%d] = %+v", tag, i, got, i, want)
		}
		if post.Triple(i) != want.Triple || post.Prob(i) != want.Probability {
			t.Fatalf("%s: row %d's columns read (%v, %v), the row holds (%v, %v)",
				tag, i, post.Triple(i), post.Prob(i), want.Triple, want.Probability)
		}
	}
	if again := post.Result(); !reflect.DeepEqual(exported(again), exported(native)) || again == native {
		t.Fatalf("%s: materialising the posterior a second time gives another result", tag)
	}
	if !reflect.DeepEqual(exported(native), exported(viaDecoded)) {
		requireBitIdentical(t, tag, viaDecoded, native) // names the first difference
		t.Fatalf("%s: the native chain and the decoded-seed chain differ in nil-ness only", tag)
	}
}

// posteriorFeed is the 30-step chain every placement walks: a head, then
// batches that add evidence to old items and sources and bring new ones.
func posteriorFeed() (head []extract.Extraction, steps [][]extract.Extraction) {
	rng := rand.New(rand.NewSource(33))
	head = testExtractions(rng, 1500)
	steps = make([][]extract.Extraction, 30)
	for i := range steps {
		steps[i] = testExtractions(rng, 120)
	}
	return head, steps
}

// TestPosteriorIsExchangeFormClaimLayer: for the claim-layer methods —
// popaccu, vote, and accu and popaccu under the θ and coverage filters, which
// leave rows without a probability — unsharded and through the coordinator
// at K = 1 and 4, at every step of a 30-step chain (cold, then one warm
// round per batch). The native chain seeds each step from the previous
// posterior, engines and all, and never materialises a result to do so; the
// other chain materialises every step and is seeded only from
// DecodeResult(EncodeResult(·)) of its own previous result.
func TestPosteriorIsExchangeFormClaimLayer(t *testing.T) {
	head, steps := posteriorFeed()
	filteredAccu := fusion.AccuConfig()
	filteredAccu.FilterByCoverage = true
	filteredAccu.AccuracyThreshold = 0.6
	unpredicted := 0
	for name, cold := range map[string]fusion.Config{
		"popaccu":       fusion.PopAccuConfig(),
		"vote":          fusion.VoteConfig(),
		"accu+filters":  filteredAccu,
		"popaccu+unsup": fusion.PopAccuPlusUnsupConfig(),
	} {
		warm := cold
		warm.Rounds = 1
		for _, k := range []int{0, 1, 4} { // 0 = unsharded
			// fuse runs cfg over the placement's current graphs from seed.
			var grow func([]extract.Extraction)
			var fuse func(cfg fusion.Config, seed *fusion.Seed) (*fusion.Posterior, error)
			if k == 0 {
				var g *fusion.Compiled
				grow = func(xs []extract.Extraction) {
					if g == nil {
						g = fusion.CompileExtractions(xs, cold.Granularity, 0)
						return
					}
					var err error
					if g, err = g.AppendExtractions(xs, cold.Granularity); err != nil {
						t.Fatal(err)
					}
				}
				fuse = func(cfg fusion.Config, seed *fusion.Seed) (*fusion.Posterior, error) {
					return fusion.FuseLockstep([]*fusion.Compiled{g}, nil, cfg, seed)
				}
			} else {
				f, err := NewFusion(k, cold.Granularity)
				if err != nil {
					t.Fatal(err)
				}
				grow = func(xs []extract.Extraction) {
					if err := f.Append(xs); err != nil {
						t.Fatal(err)
					}
				}
				fuse = f.FusePosterior
			}
			var native *fusion.Posterior
			var viaDecoded *fusion.Result
			for step := -1; step < len(steps); step++ {
				cfg, batch := warm, head
				if step >= 0 {
					batch = steps[step]
				} else {
					cfg = cold
				}
				grow(batch)
				var seed *fusion.Seed
				if viaDecoded != nil {
					seed = decoded(t, viaDecoded).Seed()
				}
				post, err := fuse(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				viaDecoded = post.Result()
				if native, err = fuse(cfg, native.Seed()); err != nil {
					t.Fatal(err)
				}
				requirePosteriorIsExchangeForm(t, fmt.Sprintf("%s K=%d step %d", name, k, step), native, viaDecoded)
				unpredicted += native.Unpredicted
			}
		}
	}
	if unpredicted == 0 {
		t.Fatal("scenario broken: no filter ever left a row without a probability")
	}
}

// TestPosteriorIsExchangeFormTwoLayer is the same walk for the two-layer
// engine, whose warm seed is a twolayer.State: the other chain's travels
// through EncodeState/DecodeState.
func TestPosteriorIsExchangeFormTwoLayer(t *testing.T) {
	head, steps := posteriorFeed()
	cold := twoLayerConfig()
	warm := cold
	warm.Rounds = 1
	for _, k := range []int{0, 1, 4} { // 0 = unsharded
		var grow func([]extract.Extraction)
		var fuse func(cfg twolayer.Config, seed *twolayer.State) (*fusion.Posterior, *twolayer.State, error)
		if k == 0 {
			var g *extract.Compiled
			grow = func(xs []extract.Extraction) {
				if g == nil {
					g = extract.Compile(xs, cold.SiteLevel)
				} else {
					g = g.Append(xs)
				}
			}
			fuse = func(cfg twolayer.Config, seed *twolayer.State) (*fusion.Posterior, *twolayer.State, error) {
				return twolayer.FuseLockstep([]*extract.Compiled{g}, nil, cfg, seed)
			}
		} else {
			tl, err := NewTwoLayer(k, cold.SiteLevel)
			if err != nil {
				t.Fatal(err)
			}
			grow, fuse = tl.Append, tl.FusePosterior
		}
		var nativeState, decodedState *twolayer.State
		for step := -1; step < len(steps); step++ {
			cfg, batch := warm, head
			if step >= 0 {
				batch = steps[step]
			} else {
				cfg = cold
			}
			grow(batch)
			viaDecoded, st, err := fuse(cfg, stateViaCodec(t, decodedState))
			if err != nil {
				t.Fatal(err)
			}
			decodedState = st
			native, st, err := fuse(cfg, nativeState)
			if err != nil {
				t.Fatal(err)
			}
			nativeState = st
			requirePosteriorIsExchangeForm(t, fmt.Sprintf("twolayer K=%d step %d", k, step), native, viaDecoded.Result())
		}
	}

	// The empty row set keeps each engine's nil-ness through the posterior:
	// nil rows from the two-layer engine, empty non-nil from the claim one.
	tl, _, err := twolayer.FuseCompiledWarm(extract.Compile(nil, cold.SiteLevel), cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	claim, err := fusion.MustCompile(nil).Fuse(fusion.PopAccuConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tl.Triples != nil || claim.Triples == nil || len(claim.Triples) != 0 {
		t.Fatalf("empty graphs: two-layer rows %#v (want nil), claim rows %#v (want empty, non-nil)", tl.Triples, claim.Triples)
	}
}
