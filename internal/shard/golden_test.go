package shard

// Golden digests across the round-driver consolidation. The K=1 tests in
// this package compare the lockstep driver's table path with its one-graph
// identity path — the same code on both sides — so they can no longer catch
// the driver itself drifting. The SHA-256 digests below were computed at the
// last commit whose engines still had their own in-engine round loops
// (fusion's engine.run/stageII/initFromGold, twolayer's FuseCompiledWarm
// loop + updateParams) and must never change: every bit of every result —
// rounds, unpredicted count, each triple's fields, provenance accuracies in
// sorted-key order, the two-layer State — is folded in.

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

func digestResult(h hash.Hash, res *fusion.Result) {
	fmt.Fprintf(h, "rounds=%d unpredicted=%d triples=%d\n", res.Rounds, res.Unpredicted, len(res.Triples))
	for _, f := range res.Triples {
		fmt.Fprintf(h, "%s|%016x|%t|%d|%d|%d\n", f.Triple.Encode(), math.Float64bits(f.Probability),
			f.Predicted, f.Provenances, f.ItemProvenances, f.Extractors)
	}
	keys := make([]string, 0, len(res.ProvAccuracy))
	for k := range res.ProvAccuracy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%016x\n", k, math.Float64bits(res.ProvAccuracy[k]))
	}
}

func digestState(h hash.Hash, st *twolayer.State) {
	for _, part := range [][]float64{st.SrcAcc, st.Recall, st.FalsePos} {
		fmt.Fprintf(h, "state n=%d\n", len(part))
		for _, v := range part {
			fmt.Fprintf(h, "%016x\n", math.Float64bits(v))
		}
	}
}

// goldenChunks cuts a feed into the 3 chunks of the warm-chain cases.
func goldenChunks(xs []extract.Extraction) [][]extract.Extraction {
	a, b := len(xs)/2, len(xs)*3/4
	return [][]extract.Extraction{xs[:a], xs[a:b], xs[b:]}
}

// goldenClaim digests one claim-layer configuration: k = 0 is the unsharded
// pipeline, k >= 1 the K-shard coordinator. chain grows the graph in three
// Appends with a one-round FuseWarm after each (the streaming shape of
// kfuse -append and kfserved), every step's result folded in.
func goldenClaim(t *testing.T, xs []extract.Extraction, cfg fusion.Config, k int, chain bool) string {
	t.Helper()
	h := sha256.New()
	chunks := [][]extract.Extraction{xs}
	if chain {
		cfg.Rounds = 1
		chunks = goldenChunks(xs)
	}
	var prev *fusion.Result
	var err error
	if k == 0 {
		stream := fusion.NewClaimStream(cfg.Granularity)
		var g *fusion.Compiled
		for _, chunk := range chunks {
			if g == nil {
				g = fusion.MustCompile(stream.Add(chunk))
			} else {
				g = g.MustAppend(stream.Add(chunk))
			}
			if prev, err = g.FuseWarm(cfg, prev); err != nil {
				t.Fatal(err)
			}
			digestResult(h, prev)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	f, err := NewFusion(k, cfg.Granularity)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range chunks {
		if err := f.Append(chunk); err != nil {
			t.Fatal(err)
		}
		if prev, err = f.FuseWarm(cfg, prev); err != nil {
			t.Fatal(err)
		}
		digestResult(h, prev)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenTwoLayer is goldenClaim for the two-layer model, with the returned
// State folded in after every fuse.
func goldenTwoLayer(t *testing.T, xs []extract.Extraction, cfg twolayer.Config, k int, chain bool) string {
	t.Helper()
	h := sha256.New()
	chunks := [][]extract.Extraction{xs}
	if chain {
		cfg.Rounds = 1
		chunks = goldenChunks(xs)
	}
	var res *fusion.Result
	var state *twolayer.State
	var err error
	if k == 0 {
		var g *extract.Compiled
		for _, chunk := range chunks {
			if g == nil {
				g = extract.Compile(chunk, cfg.SiteLevel)
			} else {
				g = g.Append(chunk)
			}
			if res, state, err = twolayer.FuseCompiledWarm(g, cfg, state); err != nil {
				t.Fatal(err)
			}
			digestResult(h, res)
			digestState(h, state)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	tl, err := NewTwoLayer(k, cfg.SiteLevel)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range chunks {
		tl.Append(chunk)
		if res, state, err = tl.FuseWarm(cfg, state); err != nil {
			t.Fatal(err)
		}
		digestResult(h, res)
		digestState(h, state)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenDigests holds every engine configuration to its recorded bits at
// K=1 unsharded, K=1 sharded (both must hit the same digest) and K=4.
func TestGoldenDigests(t *testing.T) {
	xs := testExtractions(rand.New(rand.NewSource(31)), 3000)
	claim := fusionConfigs()
	sampled := fusion.PopAccuConfig()
	sampled.SampleL = 8 // both reservoirs fire: pins the per-item and per-provenance sample seeds
	cl := func(cfg fusion.Config, chain bool) func(int) string {
		return func(k int) string { return goldenClaim(t, xs, cfg, k, chain) }
	}
	tl := func(cfg twolayer.Config, chain bool) func(int) string {
		return func(k int) string { return goldenTwoLayer(t, xs, cfg, k, chain) }
	}

	for _, c := range []struct {
		name   string
		digest func(k int) string
		k1, k4 string
	}{
		{"vote", cl(claim["vote"], false),
			"9339d03b83c5368dc3a3c5be72a88065149b445f58e3885f000ae6ad32f58855",
			"f24795668a41d5b70d7332e56b6686a3f3d3d25bf541c60b3650b8abdf52064c"},
		{"accu", cl(claim["accu"], false),
			"b8f53f64b478ae166f10fc3940a3b5a11f2d1aa332d3b66f31f94a037ffccbc6",
			"318d7ae492f52effa67fc9839b019b31d8f69f7f9c9cc46af73954c48d6168e9"},
		{"popaccu", cl(claim["popaccu"], false),
			"6c4276bfd7326db9ea9d7167029507a88be36ae1e4151e217d9a811e6a1e7f39",
			"b95a576e91b2bf4af9690aa3369669fded315c44527486b7ccf2bb2cac859428"},
		{"popplus", cl(claim["popplus"], false),
			"965edac9304b525f15f76fde7d82df7bc09dff3f55548ec719a70c4e64ef9059",
			"118fa66c8b1c3525c73357aaab6708f1b9aec339dfff4bb7f9f62f9d55771d3c"},
		{"popunsup", cl(claim["popunsup"], false),
			"1907b9faa4e26da1578aefa93b9f6387487f57aa97b28cad9e3a57a60fd54f7c",
			"76e4dd86dd2002d2e16552f639f57552289e4d4f4bca5dc280a833f9e726eef5"},
		{"popaccu-L8", cl(sampled, false),
			"ca227289605564bf44a7ba302d91a35581727eef5afdd8f02484b46f00d6fafe",
			"3cb9d2edd91ec2276d9dfbe9221c4fa981392b438d2fa59c5cdc71faba84cb9c"},
		{"popaccu-chain", cl(claim["popaccu"], true),
			"fa9003a73e963a0cb6e3530936d704b9b03c09e89af114232e2d1aa86e543759",
			"3e80f2105fed40771657ef162bef7454b82b40edfc9176375260690e43ebc31e"},
		{"twolayer", tl(twolayer.DefaultConfig(), false),
			"0a5153893e61f6bbba516358941cccbaf5ece7d3b9b521e62a13dbe66877a7d1",
			"b53b5355a30cef9c71c3522edada71c3874206aab4032f183ca6a14c6a64901e"},
		{"twolayer-chain", tl(twolayer.DefaultConfig(), true),
			"d02bc62a3ff5df357d3ee130c7069a6c5138e3c5571aa99e3d6f6844555a114e",
			"6a2ac90111818f0a62ee8d8f9298da646631154b96edc6c6873be5e3d86bf40f"},
	} {
		for _, run := range []struct {
			tag  string
			k    int
			want string
		}{
			{"unsharded", 0, c.k1},
			{"K=1", 1, c.k1},
			{"K=4", 4, c.k4},
		} {
			if got := c.digest(run.k); got != run.want {
				t.Errorf("%s/%s: digest %s, want %s", c.name, run.tag, got, run.want)
			}
		}
	}
}
