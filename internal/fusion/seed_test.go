package fusion

import (
	"maps"
	"slices"
	"testing"
)

// viaMap strips a result of its dense seed: a hand-built copy of its
// exported fields seeds the next FuseWarm through the accuracy map alone, on
// fresh engines — the only warm path before the dense seed existed.
func viaMap(t *testing.T, res *Result) *Result {
	t.Helper()
	keyed := &Result{Triples: slices.Clone(res.Triples), Rounds: res.Rounds, ProvAccuracy: maps.Clone(res.ProvAccuracy), Unpredicted: res.Unpredicted}
	if keyed.Seed().byKey == nil {
		t.Fatal("a hand-built result carries a dense seed")
	}
	return keyed
}

// TestDenseSeedMatchesMapSeed walks a 30-step append chain under the
// streaming configuration (one warm round per step, so the seed decides
// every bit) and requires, at every step, the result seeded by index from
// the previous generation's result to equal the one seeded through the map.
// The map must stay fully populated, and the dense path must actually be the
// one taken: along a chain the key column is extended in place or copied,
// and is a prefix either way.
func TestDenseSeedMatchesMapSeed(t *testing.T) {
	claims := shardedClaims(7000)
	cfg := PopAccuConfig()
	g := MustCompile(claims[:1000])
	prev := g.MustFuse(cfg)
	cfg.Rounds = 1
	for step := 0; step < 30; step++ {
		at := 1000 + 200*step
		g = g.MustAppend(claims[at : at+200])
		if !isPrefix(prev.seed.keys, g.g.provKeys) {
			t.Fatalf("step %d: the previous result's keys are not a prefix of the chain's", step)
		}
		got := g.MustFuseWarm(cfg, prev)
		assertBitIdentical(t, "dense vs map seed", got, g.MustFuseWarm(cfg, viaMap(t, prev)))
		if len(got.ProvAccuracy) != g.NumProvenances() || len(got.seed.acc) != g.NumProvenances() {
			t.Fatalf("step %d: %d map entries, %d dense, %d provenances",
				step, len(got.ProvAccuracy), len(got.seed.acc), g.NumProvenances())
		}
		for p, key := range got.seed.keys {
			if a, ok := got.ProvAccuracy[key]; !ok || a != got.seed.acc[p] {
				t.Fatalf("step %d: dense accuracy of %q is %v, the map holds %v", step, key, got.seed.acc[p], a)
			}
		}
		prev = got
	}
	if g.NumProvenances() == MustCompile(claims[:1000]).NumProvenances() {
		t.Fatal("scenario broken: the chain never interned a new provenance")
	}
}

// TestDenseSeedAcrossFork seeds a fork from its sibling: A→B chained in
// place, A→B' forked with another batch. B's result holds B's keys, which
// are not a prefix of the fork's (both extend A's, differently), so B'.FuseWarm
// must notice — by comparing keys, not by trusting the shared prefix — and
// seed through the map; likewise a later generation's result seeding an
// earlier graph.
func TestDenseSeedAcrossFork(t *testing.T) {
	claims := shardedClaims(6000)
	cfg := PopAccuConfig()
	cfg.Rounds = 1
	a, n := chainWithTail(t, claims, 1000)
	b := a.MustAppend(claims[n : n+100])
	fork := a.MustAppend(slices.Concat(randomClaims(5, 150), claims[n+100:n+200]))
	if !sharesArray(a, b) || sharesArray(a, fork) {
		t.Fatal("scenario broken: B should extend A in place and B' should copy")
	}
	resA := a.MustFuse(PopAccuConfig())
	resB := b.MustFuseWarm(cfg, resA)
	if isPrefix(resB.seed.keys, fork.g.provKeys) {
		t.Fatal("scenario broken: the fork's keys begin with its sibling's")
	}
	assertBitIdentical(t, "B seeds B'", fork.MustFuseWarm(cfg, resB), fork.MustFuseWarm(cfg, viaMap(t, resB)))
	assertBitIdentical(t, "A seeds B'", fork.MustFuseWarm(cfg, resA), fork.MustFuseWarm(cfg, viaMap(t, resA)))
	assertBitIdentical(t, "B seeds A", a.MustFuseWarm(cfg, resB), a.MustFuseWarm(cfg, viaMap(t, resB)))
}
