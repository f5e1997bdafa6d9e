package fusion

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"kfusion/internal/kb"
)

// randomClaims builds a reproducible random claim set from a seed: a handful
// of items, values and provenances.
func randomClaims(seed int64, n int) []Claim {
	rng := rand.New(rand.NewSource(seed))
	claims := make([]Claim, 0, n)
	for i := 0; i < n; i++ {
		claims = append(claims, Claim{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(6))),
				Predicate: kb.PredicateID(fmt.Sprintf("p%d", rng.Intn(3))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(5))),
			},
			Prov: fmt.Sprintf("prov%d", rng.Intn(10)),
		})
	}
	// Deduplicate (prov, triple) pairs as Claims() would.
	type pk struct {
		p string
		t kb.Triple
	}
	seen := map[pk]bool{}
	out := claims[:0]
	for _, c := range claims {
		k := pk{c.Prov, c.Triple}
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// TestQuickProbabilityInvariants: for random claim sets and all methods,
// probabilities stay in [0,1] and per-item sums stay <= 1.
func TestQuickProbabilityInvariants(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		claims := randomClaims(seed, int(size%64)+1)
		for _, cfg := range []Config{VoteConfig(), AccuConfig(), PopAccuConfig()} {
			res, err := Fuse(claims, cfg)
			if err != nil {
				return false
			}
			sums := map[kb.DataItem]float64{}
			for _, fz := range res.Triples {
				if !fz.Predicted {
					continue
				}
				if fz.Probability < 0 || fz.Probability > 1 {
					return false
				}
				sums[fz.Item()] += fz.Probability
			}
			for _, s := range sums {
				if s > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickAgreementMonotonicity: adding a fresh agreeing provenance for a
// value must not decrease that value's probability in the first round
// (POPACCU's monotonicity property from [14], checked before EM feedback).
func TestQuickAgreementMonotonicity(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		claims := randomClaims(seed, int(size%48)+2)
		target := claims[0].Triple
		cfg := PopAccuConfig()
		cfg.Rounds = 1

		before, err := Fuse(claims, cfg)
		if err != nil {
			return false
		}
		extended := append(append([]Claim(nil), claims...), Claim{
			Triple: target,
			Prov:   "fresh-agreeing-provenance",
		})
		after, err := Fuse(extended, cfg)
		if err != nil {
			return false
		}
		pb := before.ByTriple()[target].Probability
		pa := after.ByTriple()[target].Probability
		return pa >= pb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterministicAcrossWorkers: results are identical regardless of
// MapReduce parallelism.
func TestQuickDeterministicAcrossWorkers(t *testing.T) {
	claims := randomClaims(99, 60)
	for _, cfg := range []Config{AccuConfig(), PopAccuConfig()} {
		ref, err := Fuse(claims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refMap := ref.ByTriple()
		for _, workers := range []int{1, 2, 7} {
			c := cfg
			c.Workers = workers
			got, err := Fuse(claims, c)
			if err != nil {
				t.Fatal(err)
			}
			for tr, fz := range got.ByTriple() {
				if refMap[tr] != fz {
					t.Fatalf("%v workers=%d: %v differs: %+v vs %+v", cfg.Method, workers, tr, fz, refMap[tr])
				}
			}
		}
	}
}

// TestQuickVoteMatchesCounts: VOTE's probability is exactly m/n for every
// random claim set.
func TestQuickVoteMatchesCounts(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		claims := randomClaims(seed, int(size%64)+1)
		res, err := Fuse(claims, VoteConfig())
		if err != nil {
			return false
		}
		m := map[kb.Triple]int{}
		n := map[kb.DataItem]int{}
		for _, c := range claims {
			m[c.Triple]++
			n[c.Triple.Item()]++
		}
		for _, fz := range res.Triples {
			want := float64(m[fz.Triple]) / float64(n[fz.Item()])
			if diff := fz.Probability - want; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickGoldInitAccuracyBounds: gold-initialized accuracies are always
// valid probabilities regardless of label pattern.
func TestQuickGoldInitAccuracyBounds(t *testing.T) {
	f := func(seed int64, size uint8, flip bool) bool {
		claims := randomClaims(seed, int(size%48)+1)
		cfg := PopAccuConfig()
		cfg.Rounds = 1
		cfg.GoldLabeler = func(tr kb.Triple) (bool, bool) {
			h := int64(len(tr.Object.Str)) + seed
			return (h%2 == 0) != flip, h%3 != 0
		}
		res, err := Fuse(claims, cfg)
		if err != nil {
			return false
		}
		for _, a := range res.ProvAccuracy {
			if a < 0 || a > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
