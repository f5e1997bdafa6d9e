package fusion

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
)

// assertBitIdentical requires two results to be exactly equal — same triple
// order, same bits in every float. Reusing a Compiled across configs must
// not perturb anything, because the graph carries no per-run state.
func assertBitIdentical(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: Rounds = %d, want %d", name, got.Rounds, want.Rounds)
	}
	if got.Unpredicted != want.Unpredicted {
		t.Fatalf("%s: Unpredicted = %d, want %d", name, got.Unpredicted, want.Unpredicted)
	}
	if len(got.Triples) != len(want.Triples) {
		t.Fatalf("%s: %d triples, want %d", name, len(got.Triples), len(want.Triples))
	}
	for i := range got.Triples {
		if got.Triples[i] != want.Triples[i] {
			t.Fatalf("%s: triple %d differs: %+v vs %+v", name, i, got.Triples[i], want.Triples[i])
		}
	}
	if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
		t.Fatalf("%s: %d provenances, want %d", name, len(got.ProvAccuracy), len(want.ProvAccuracy))
	}
	for p, a := range got.ProvAccuracy {
		if wa, ok := want.ProvAccuracy[p]; !ok || wa != a {
			t.Fatalf("%s: ProvAccuracy[%q] = %v, want %v", name, p, a, wa)
		}
	}
}

// TestCompiledReuseBitIdentical is the no-leak contract of the Compiled
// handle: one compilation fused under every method (and twice under one
// config) must give results bit-identical to fresh compile-per-config
// fusion.Fuse calls. Any config-dependent state smuggled into the shared
// graph would show up here.
func TestCompiledReuseBitIdentical(t *testing.T) {
	claims := randomClaims(20260728, 400)
	compiled := MustCompile(claims)

	goldLabeler := func(tr kb.Triple) (bool, bool) {
		h := kb.Triple.Hash(tr)
		return h%3 != 0, h%2 == 0
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"VOTE", VoteConfig()},
		{"ACCU", AccuConfig()},
		{"POPACCU", PopAccuConfig()},
		{"POPACCU+unsup", PopAccuPlusUnsupConfig()},
		{"POPACCU+", PopAccuPlusConfig(goldLabeler)},
	}
	for _, c := range cfgs {
		fresh := MustFuse(claims, c.cfg)
		reused := compiled.MustFuse(c.cfg)
		assertBitIdentical(t, c.name, reused, fresh)
	}

	// Twice under one config, interleaved with the sweep above: the n-th run
	// must not see anything from the previous n-1.
	again := compiled.MustFuse(PopAccuConfig())
	assertBitIdentical(t, "POPACCU/repeat", again, MustFuse(claims, PopAccuConfig()))
}

// TestCompiledConcurrentFuse exercises simultaneous Fuse calls on one
// Compiled: the graph is immutable shared input, so parallel runs must all
// produce the same bits.
func TestCompiledConcurrentFuse(t *testing.T) {
	claims := randomClaims(77, 300)
	compiled := MustCompile(claims)
	base := compiled.MustFuse(PopAccuConfig())
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := compiled.MustFuse(PopAccuConfig())
			for i := range res.Triples {
				if res.Triples[i] != base.Triples[i] {
					t.Errorf("concurrent fuse diverged at triple %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompileEmpty pins the degenerate input: compiling no claims yields an
// empty, fusable graph.
func TestCompileEmpty(t *testing.T) {
	compiled := MustCompile(nil)
	if compiled.NumClaims() != 0 || compiled.NumItems() != 0 || compiled.NumTriples() != 0 {
		t.Fatalf("empty compile not empty: %d claims, %d items, %d triples",
			compiled.NumClaims(), compiled.NumItems(), compiled.NumTriples())
	}
	res := compiled.MustFuse(VoteConfig())
	if len(res.Triples) != 0 {
		t.Fatalf("empty fuse produced %d triples", len(res.Triples))
	}
}

// shardedClaims builds a claim set large enough to trigger the parallel
// interning path, with provenances interleaved across shard boundaries plus
// rare keys that first occur deep inside later shards.
func shardedClaims(n int) []Claim {
	claims := make([]Claim, n)
	for i := 0; i < n; i++ {
		prov := fmt.Sprintf("prov%d", i%2048)
		if i%97 == 0 {
			prov = fmt.Sprintf("rare%d", i)
		}
		claims[i] = Claim{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", i/8)),
				Predicate: "p",
				Object:    kb.StringObject(fmt.Sprintf("v%d", i%4)),
			},
			Prov:      prov,
			Extractor: fmt.Sprintf("X%d", i%13),
			Conf:      -1,
		}
	}
	return claims
}

// TestInternClaimsParallelMatchesSequential pins the shard-and-merge
// interning (pairwise-merged key lists + parallel remap) against the
// sequential loop: identical IDs, identical key tables, for any shard count.
// It calls the pass itself, so the counts extend no longer selects
// (csr.ShardIntern) stay covered.
func TestInternClaimsParallelMatchesSequential(t *testing.T) {
	claims := shardedClaims(internShardThreshold + internShardThreshold/2)
	seq, seqIdx := compile(claims, 1)
	for _, shards := range []int{2, 3, 8} {
		n := len(claims)
		par := &graph{columns: columns{
			claims:        claims,
			provOfClaim:   make([]int32, n),
			tripleOfClaim: make([]int32, n),
		}}
		parIdx := &claimIndex{extOfClaim: make([]int32, n)}
		internClaimsParallel(par, parIdx, shards)
		if !slices.Equal(parIdx.extKeys, seqIdx.extKeys) {
			t.Fatalf("shards=%d: extractor keys %v, want %v", shards, parIdx.extKeys, seqIdx.extKeys)
		}
		if !slices.Equal(par.provKeys, seq.provKeys) {
			t.Fatalf("shards=%d: prov keys differ (%d, want %d)", shards, len(par.provKeys), len(seq.provKeys))
		}
		if !slices.Equal(par.triples, seq.triples) {
			t.Fatalf("shards=%d: triples differ (%d, want %d)", shards, len(par.triples), len(seq.triples))
		}
		if !slices.Equal(par.provOfClaim, seq.provOfClaim) {
			t.Fatalf("shards=%d: provOfClaim differs", shards)
		}
		if !slices.Equal(parIdx.extOfClaim, seqIdx.extOfClaim[:n]) {
			t.Fatalf("shards=%d: extOfClaim differs", shards)
		}
		if !slices.Equal(par.tripleOfClaim, seq.tripleOfClaim) {
			t.Fatalf("shards=%d: tripleOfClaim differs", shards)
		}
		// The tables the pass leaves are what Append continues from.
		for id, key := range par.provKeys {
			if got := parIdx.prov.ID(parIdx.prov.Hash(key), key, par.provKeys); got != int32(id) {
				t.Fatalf("shards=%d: prov table maps %q to %d, want %d", shards, key, got, id)
			}
		}
		for id, key := range par.triples {
			if got := parIdx.tri.ID(parIdx.tri.Hash(key), key, par.triples); got != int32(id) {
				t.Fatalf("shards=%d: triple table maps %v to %d, want %d", shards, key, got, id)
			}
		}
	}
}

// TestCompileWorkersSameGraph holds the compiled graph to one value for every
// workers setting on both sides of the shard-pass rule — below and from
// csr.ShardInternMinWorkers, just under and just over csr.ParallelThreshold —
// field by field and through the bytes a state directory would hold.
func TestCompileWorkersSameGraph(t *testing.T) {
	for _, n := range []int{csr.ParallelThreshold - 1, csr.ParallelThreshold + 1} {
		claims := shardedClaims(n)
		want, _ := CompileWorkers(claims, 1, 0)
		var wantBytes bytes.Buffer
		if err := want.EncodeSnapshot(&wantBytes); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 4, 8} {
			got, _ := CompileWorkers(claims, workers, 0)
			name := fmt.Sprintf("n=%d workers=%d", n, workers)
			graphsEqual(t, name, got.g, want.g)
			if !slices.Equal(got.idx.extKeys, want.idx.extKeys) || !slices.Equal(got.idx.extOfClaim, want.idx.extOfClaim) {
				t.Fatalf("%s: extractor axis differs", name)
			}
			var gotBytes bytes.Buffer
			if err := got.EncodeSnapshot(&gotBytes); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
				t.Fatalf("%s: snapshot bytes differ from workers=1", name)
			}
		}
	}
}

// TestCompileLargeWorkerIndependent runs the full compile above the parallel
// interning threshold at several worker counts and requires bit-identical
// fusion results — the large-input version of the existing worker-
// independence pins.
func TestCompileLargeWorkerIndependent(t *testing.T) {
	claims := shardedClaims(internShardThreshold + 512)
	base := MustFuse(claims, PopAccuConfig())
	for _, workers := range []int{1, 4} {
		cfg := PopAccuConfig()
		cfg.Workers = workers
		assertBitIdentical(t, fmt.Sprintf("workers=%d", workers), MustFuse(claims, cfg), base)
	}
}

// TestStageIIOversampleDivergenceBounded pins the one documented
// approximation boundary between the engines: when a provenance exceeds
// SampleL scored claims, stage II's reservoir consumes the probabilities in
// shuffle emission order in FuseReference but in compiled claim order in
// Fuse, so the two samples — equally sized, equally deterministic, drawn
// from the same scored-probability multiset — can differ. Exactness is not
// required: both accuracy estimates are means of uniform SampleL-sized
// samples of the same stream, so they concentrate around the same full mean
// with sampling error O(spread/√L), and the EM update contracts rather than
// amplifies the gap. This test bounds the drift and re-asserts bit-level
// (1e-12) agreement once SampleL stops binding.
func TestStageIIOversampleDivergenceBounded(t *testing.T) {
	var claims []Claim
	for j := 0; j < 240; j++ {
		item := fmt.Sprintf("s%d", j)
		claims = append(claims, cl(item, "p", "v", "big"))
		if j%2 == 0 {
			claims = append(claims, cl(item, "p", "v", fmt.Sprintf("sup%d", j%7)))
		}
		if j%3 == 0 {
			claims = append(claims, cl(item, "p", "w", fmt.Sprintf("con%d", j%5)))
		}
	}
	cfg := PopAccuConfig()
	cfg.SampleL = 16 // "big" has 240 scored claims -> reservoir binds
	cfg.SampleSeed = 11
	cfg.Epsilon = 1e-300 // pin the round count in both engines

	want, err := FuseReference(claims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fuse(claims, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Everything discrete still matches exactly.
	if got.Rounds != want.Rounds {
		t.Fatalf("Rounds = %d, want %d", got.Rounds, want.Rounds)
	}
	if len(got.Triples) != len(want.Triples) {
		t.Fatalf("%d triples, want %d", len(got.Triples), len(want.Triples))
	}
	wantBy := want.ByTriple()
	const driftTol = 0.1
	maxProbDrift := 0.0
	for _, f := range got.Triples {
		w, ok := wantBy[f.Triple]
		if !ok {
			t.Fatalf("unexpected triple %v", f.Triple)
		}
		if f.Predicted != w.Predicted || f.Provenances != w.Provenances ||
			f.ItemProvenances != w.ItemProvenances || f.Extractors != w.Extractors {
			t.Fatalf("%v support mismatch: %+v vs %+v", f.Triple, f, w)
		}
		if d := math.Abs(f.Probability - w.Probability); d > maxProbDrift {
			maxProbDrift = d
		}
	}
	maxAccDrift := 0.0
	for p, a := range got.ProvAccuracy {
		if d := math.Abs(a - want.ProvAccuracy[p]); d > maxAccDrift {
			maxAccDrift = d
		}
	}
	if maxAccDrift > driftTol || maxProbDrift > driftTol {
		t.Errorf("divergence beyond sampling-noise bound: acc drift %.4f, prob drift %.4f (tol %.2f)",
			maxAccDrift, maxProbDrift, driftTol)
	}
	if maxAccDrift == 0 {
		t.Error("expected the oversampled provenance to drift; SampleL never bound — test scenario broken")
	}

	// With SampleL no longer binding, the engines must agree bit-tight again.
	cfg.SampleL = 1 << 20
	want, err = FuseReference(claims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Fuse(claims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "sampleL-unbound", got, want)
}
