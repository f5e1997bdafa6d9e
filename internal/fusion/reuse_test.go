package fusion

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
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
		}
	}
	return claims
}

// TestInternClaimsRangesMatchLoop pins internClaims at every range count
// against the sequential loop (internRange) over the whole stream: identical
// IDs, key columns and tables, from empty and onto an index whose tables
// already hold some of the batch's keys. It calls internClaims itself, so the
// range counts extend does not select (shardIntern) stay covered.
func TestInternClaimsRangesMatchLoop(t *testing.T) {
	batch := shardedClaims(csr.ParallelThreshold + csr.ParallelThreshold/2)
	// Every seventh claim repeats a triple from anywhere in the batch, so
	// ranges share triples as well as provenances and extractors; the prefix
	// repeats every fifth claim, so the tables hold keys before the batch.
	var prefix []Claim
	for i := range batch {
		if i%7 == 0 {
			batch[i].Triple = batch[(i*31)%len(batch)].Triple
		}
		if i%5 == 0 {
			prefix = append(prefix, batch[i])
		}
	}
	for _, pre := range [][]Claim{nil, prefix} {
		all := append(slices.Clip(pre), batch...)
		want, wantIdx := claimColumns(len(all))
		internRange(want, wantIdx, all, 0)
		for _, shards := range []int{1, 2, 3, 8} {
			name := fmt.Sprintf("first=%d shards=%d", len(pre), shards)
			g, idx := claimColumns(len(all))
			internRange(g, idx, pre, 0)
			internClaims(g, idx, batch, len(pre), shards)

			if !slices.Equal(g.extKeys, want.extKeys) {
				t.Fatalf("%s: extractor keys %v, want %v", name, g.extKeys, want.extKeys)
			}
			if !slices.Equal(g.provKeys, want.provKeys) {
				t.Fatalf("%s: prov keys differ (%d, want %d)", name, len(g.provKeys), len(want.provKeys))
			}
			if !slices.Equal(g.triples, want.triples) {
				t.Fatalf("%s: triples differ (%d, want %d)", name, len(g.triples), len(want.triples))
			}
			if !slices.Equal(g.provOfClaim, want.provOfClaim) {
				t.Fatalf("%s: provOfClaim differs", name)
			}
			if !slices.Equal(g.extOfClaim, want.extOfClaim) {
				t.Fatalf("%s: extOfClaim differs", name)
			}
			if !slices.Equal(g.tripleOfClaim, want.tripleOfClaim) {
				t.Fatalf("%s: tripleOfClaim differs", name)
			}
			// The tables internClaims leaves are what the next Append
			// continues from.
			requireTable(t, name+": prov table", &idx.prov, g.provKeys)
			requireTable(t, name+": extractor table", &idx.ext, g.extKeys)
			requireTable(t, name+": triple table", &idx.tri, g.triples)
		}
	}
}

// claimColumns returns a graph with n zeroed per-claim columns and an index
// presized for them.
func claimColumns(n int) (*graph, *claimIndex) {
	g := &graph{columns: columns{
		provOfClaim:   make([]int32, n),
		tripleOfClaim: make([]int32, n),
		extOfClaim:    make([]int32, n),
	}}
	idx := &claimIndex{}
	idx.presize(g, n)
	return g, idx
}

// requireTable fails t unless tab maps every key of the column keys to its
// index there.
func requireTable[K comparable](t *testing.T, name string, tab *csr.InternTable[K], keys []K) {
	t.Helper()
	for id, key := range keys {
		if got := tab.ID(tab.Hash(key), key, keys); got != int32(id) {
			t.Fatalf("%s maps %v to %d, want %d", name, key, got, id)
		}
	}
}

// TestAppendExtractionsOntoShardPass continues a chain from the tables the
// shard pass leaves: an extraction batch of old and new provenances,
// extractors and triples, appended onto a generation compiled through the
// pass, must give the graph the same append gives onto a loop-compiled one.
func TestAppendExtractionsOntoShardPass(t *testing.T) {
	claims := shardedClaims(csr.ParallelThreshold + csr.ParallelThreshold/2)
	xs := make([]extract.Extraction, 4096)
	for i := range xs {
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", i*5)),
				Predicate: "p",
				Object:    kb.StringObject(fmt.Sprintf("v%d", i%5)),
			},
			Extractor:  fmt.Sprintf("X%d", i%17),
			URL:        fmt.Sprintf("prov%d", i%3000), // the claims' provenance keys under GranSourceOnly
			Confidence: -1,
		}
	}
	loop, _ := CompileWorkers(claims, 1, 0)
	pass, _ := CompileWorkers(claims, shardInternMinWorkers, 0)
	want, err := loop.AppendExtractions(xs, GranSourceOnly)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pass.AppendExtractions(xs, GranSourceOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClaims() == len(claims) {
		t.Fatal("the batch added no claim")
	}
	if !bytes.Equal(dumpGraph(t, got), dumpGraph(t, want)) {
		t.Fatal("extraction append onto the shard pass's generation differs from the one onto the loop's")
	}
}

// TestShardInternRule states which (batch size, workers) pairs take the
// shard interning pass, so a change to the rule is a visible diff.
func TestShardInternRule(t *testing.T) {
	for _, c := range []struct {
		n, workers int
		want       bool
	}{
		{1 << 14, 4, true}, {1 << 20, 64, true},
		{1<<14 - 1, 4, false}, {1 << 20, 3, false}, {1 << 20, 2, false}, {1 << 20, 1, false}, {0, 8, false},
	} {
		if got := shardIntern(c.n, c.workers); got != c.want {
			t.Errorf("shardIntern(%d, %d) = %v, want %v", c.n, c.workers, got, c.want)
		}
	}
}

// TestCompileWorkersSameGraph holds the compiled graph to one value for every
// workers setting on both sides of the shard-pass rule — below and from
// shardInternMinWorkers, just under and just over csr.ParallelThreshold —
// field by field and through the dump of every field (dumpGraph).
func TestCompileWorkersSameGraph(t *testing.T) {
	for _, n := range []int{csr.ParallelThreshold - 1, csr.ParallelThreshold + 1} {
		claims := shardedClaims(n)
		want, _ := CompileWorkers(claims, 1, 0)
		wantDump := dumpGraph(t, want)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			got, _ := CompileWorkers(claims, workers, 0)
			name := fmt.Sprintf("n=%d workers=%d", n, workers)
			graphsEqual(t, name, got.g, want.g)
			if !bytes.Equal(dumpGraph(t, got), wantDump) {
				t.Fatalf("%s: graph dump differs from workers=1", name)
			}
		}
	}
}

// TestCompileLargeWorkerIndependent runs the full compile above the parallel
// interning threshold at several worker counts and requires bit-identical
// fusion results — the large-input version of the existing worker-
// independence pins.
func TestCompileLargeWorkerIndependent(t *testing.T) {
	claims := shardedClaims(csr.ParallelThreshold + 512)
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
	cfg.SampleL = 16     // "big" has 240 scored claims -> reservoir binds
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
