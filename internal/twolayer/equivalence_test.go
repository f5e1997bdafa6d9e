package twolayer

import (
	"fmt"
	"math/rand"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// randomExtractions generates a collision-heavy synthetic extraction stream:
// few subjects, values, extractors and pages, so statements stack up with
// partial extractor agreement — the regime where the two EM layers interact.
func randomExtractions(rng *rand.Rand, n int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	for i := range xs {
		site := fmt.Sprintf("site%d", rng.Intn(6))
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(15))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(3))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(5))),
			},
			Extractor: fmt.Sprintf("E%d", rng.Intn(6)),
			URL:       fmt.Sprintf("http://%s/p%d", site, rng.Intn(5)),
			Site:      site,
		}
	}
	return xs
}

// requireBitIdentical asserts two results are exactly equal: same triple
// order, bitwise-equal probabilities and accuracies, same support counts.
// This is the bar for the compiled engine against itself across Workers
// values — the reduction trees are fixed by the data, so any drift is a bug.
func requireBitIdentical(t *testing.T, label string, got, want *fusion.Result) {
	t.Helper()
	requireEquivalent(t, label, got, want, true)
}

// requireClose is requireBitIdentical with the documented RefTol on the
// float outputs (triple probabilities, source accuracies); integer outputs
// — triple order, support counts, rounds — must still match exactly. This
// is the bar for compiled-vs-reference comparisons.
func requireClose(t *testing.T, label string, got, want *fusion.Result) {
	t.Helper()
	requireEquivalent(t, label, got, want, false)
}

func requireEquivalent(t *testing.T, label string, got, want *fusion.Result, exact bool) {
	t.Helper()
	floatsMatch := func(a, b float64) bool {
		if exact {
			return a == b
		}
		return CloseToReference(a, b)
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: Rounds = %d, want %d", label, got.Rounds, want.Rounds)
	}
	if len(got.Triples) != len(want.Triples) {
		t.Fatalf("%s: %d triples, want %d", label, len(got.Triples), len(want.Triples))
	}
	for i := range got.Triples {
		g, w := got.Triples[i], want.Triples[i]
		if g.Triple != w.Triple || g.Predicted != w.Predicted ||
			g.Provenances != w.Provenances || g.ItemProvenances != w.ItemProvenances ||
			g.Extractors != w.Extractors || !floatsMatch(g.Probability, w.Probability) {
			t.Fatalf("%s: triple %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
	if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
		t.Fatalf("%s: %d sources, want %d", label, len(got.ProvAccuracy), len(want.ProvAccuracy))
	}
	for src, a := range got.ProvAccuracy {
		wa, ok := want.ProvAccuracy[src]
		if !ok {
			t.Fatalf("%s: unexpected source %q", label, src)
		}
		if !floatsMatch(a, wa) {
			t.Fatalf("%s: ProvAccuracy[%q] = %v, want %v", label, src, a, wa)
		}
	}
}

// TestCompiledMatchesReference pins the compiled flat-slice engine against
// the map-keyed reference engine — integer outputs exactly, float outputs
// within the documented refTol (the M-step's fixed-block pairwise reduction
// re-groups the reference's left-to-right sums) — across source levels,
// worker counts and input sizes (including sizes that cross
// csr.ParallelThreshold via the shared large case in the root equivalence
// test).
func TestCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 40, 2500} {
		xs := randomExtractions(rng, n)
		for _, siteLevel := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.SiteLevel = siteLevel
			want := MustFuseReference(xs, cfg)
			g := extract.Compile(xs, siteLevel)
			for _, workers := range []int{1, 4, 8} {
				c := cfg
				c.Workers = workers
				got, err := FuseCompiled(g, c)
				if err != nil {
					t.Fatalf("n=%d siteLevel=%v workers=%d: %v", n, siteLevel, workers, err)
				}
				requireClose(t, fmt.Sprintf("n=%d siteLevel=%v workers=%d", n, siteLevel, workers), got, want)
			}
		}
	}
}

// randomExtractionsWide is randomExtractions with much wider key spaces: a
// statement population in the tens of thousands, so per-extractor spans
// cover many csr.ReduceBlockSize blocks and the extraction count crosses
// csr.ParallelThreshold — the regime where the parallel M-step reduction and
// the compile's parallel counting passes actually engage.
func randomExtractionsWide(rng *rand.Rand, n int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	for i := range xs {
		site := fmt.Sprintf("site%d", rng.Intn(12))
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(400))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(6))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(8))),
			},
			Extractor: fmt.Sprintf("E%d", rng.Intn(7)),
			URL:       fmt.Sprintf("http://%s/p%d", site, rng.Intn(6)),
			Site:      site,
		}
	}
	return xs
}

// TestForcedWorkerDeterminism is the tentpole's pin: at a scale where the
// M-step reduction spans many blocks and compilation interns in parallel
// shards, the full pipeline — CompileWorkers + FuseCompiled — must produce
// bit-identical results (exact float equality) at Workers 1, 2, 3, 7 and 8.
func TestForcedWorkerDeterminism(t *testing.T) {
	xs := randomExtractionsWide(rand.New(rand.NewSource(31)), 20000)
	for _, siteLevel := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.SiteLevel = siteLevel
		cfg.Workers = 1
		base := extract.CompileWorkers(xs, siteLevel, 1)
		// Guard the regime: some extractor span must need several blocks, or
		// the pairwise fold degenerates and the test pins nothing.
		if len(base.ExtStatementBlocks()) <= base.NumExtractors() {
			t.Fatalf("siteLevel=%v: dataset too small to exercise the multi-block reduction", siteLevel)
		}
		want := MustFuseCompiled(base, cfg)
		for _, workers := range []int{2, 3, 7, 8} {
			g := extract.CompileWorkers(xs, siteLevel, workers)
			c := cfg
			c.Workers = workers
			requireBitIdentical(t, fmt.Sprintf("siteLevel=%v workers=%d", siteLevel, workers),
				MustFuseCompiled(g, c), want)
		}
	}
}

// TestFuseCompiledRejectsLevelMismatch: the graph's source grouping is baked
// in at compile time, so fusing a mismatched config must fail loudly instead
// of silently using the wrong grouping.
func TestFuseCompiledRejectsLevelMismatch(t *testing.T) {
	xs := randomExtractions(rand.New(rand.NewSource(1)), 50)
	g := extract.Compile(xs, true)
	if _, err := FuseCompiled(g, DefaultConfig()); err == nil {
		t.Fatal("site-level graph accepted URL-level config")
	}
}

// TestFuseDeterministicAcrossWorkers is the seed-stability regression test
// for the map-iteration-order nondeterminism the seed implementation had:
// results must be identical run to run and for every Workers value, for both
// engines.
func TestFuseDeterministicAcrossWorkers(t *testing.T) {
	xs := randomExtractions(rand.New(rand.NewSource(23)), 1500)
	cfg := DefaultConfig()
	cfg.SiteLevel = true

	want := MustFuse(xs, cfg)
	for run := 0; run < 3; run++ {
		for _, workers := range []int{1, 2, 8} {
			c := cfg
			c.Workers = workers
			requireBitIdentical(t, fmt.Sprintf("compiled run=%d workers=%d", run, workers),
				MustFuse(xs, c), want)
		}
	}

	wantRef := MustFuseReference(xs, cfg)
	for run := 0; run < 3; run++ {
		for _, workers := range []int{1, 8} {
			c := cfg
			c.Workers = workers
			requireBitIdentical(t, fmt.Sprintf("reference run=%d workers=%d", run, workers),
				MustFuseReference(xs, c), wantRef)
		}
	}
}
