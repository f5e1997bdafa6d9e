package fusion

import (
	"fmt"
	"math"
	"testing"

	"kfusion/internal/csr"
)

// TestPosteriorMoves pins the round statistics a posterior keeps: one largest
// accuracy move per executed EM round, the convergence test's own value — so
// in an Epsilon-stopped run only the last is below Epsilon, a round-capped run
// records exactly the cap (the same values as the first rounds of the run it
// was cut from), VOTE records none, and the values are bit-identical across
// Workers and between the K=1 identity-table path and an explicit table.
func TestPosteriorMoves(t *testing.T) {
	c := MustCompile(randomClaims(5, 600))
	fuse := func(cfg Config, provs *csr.IDTable) *Posterior {
		t.Helper()
		p, err := FuseLockstep([]*Compiled{c}, provs, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sameBits := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d moves, want %d", name, len(got), len(want))
		}
		for r := range got {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("%s: round %d moved %v, want %v", name, r, got[r], want[r])
			}
		}
	}

	cfg := PopAccuConfig()
	cfg.Rounds, cfg.Epsilon = 100, 1e-6
	stopped := fuse(cfg, nil)
	if stopped.Rounds < 3 || stopped.Rounds >= cfg.Rounds || len(stopped.Moves) != stopped.Rounds {
		t.Fatalf("Epsilon-stopped run: %d rounds of %d, %d moves", stopped.Rounds, cfg.Rounds, len(stopped.Moves))
	}
	for r, m := range stopped.Moves {
		if last := r == len(stopped.Moves)-1; (m < cfg.Epsilon) != last {
			t.Fatalf("round %d of %d moved %v against Epsilon %v", r+1, stopped.Rounds, m, cfg.Epsilon)
		}
	}

	capped := cfg
	capped.Rounds = stopped.Rounds - 1
	got := fuse(capped, nil)
	if got.Rounds != capped.Rounds {
		t.Fatalf("capped run: %d rounds, cap %d", got.Rounds, capped.Rounds)
	}
	sameBits("capped run", got.Moves, stopped.Moves[:capped.Rounds])

	for _, workers := range []int{1, 2, 4, 8} {
		w := cfg
		w.Workers = workers
		sameBits(fmt.Sprintf("workers=%d", workers), fuse(w, nil).Moves, stopped.Moves)
		sameBits(fmt.Sprintf("workers=%d explicit table", workers), fuse(w, csr.IdentityTable(c.ProvKeys())).Moves, stopped.Moves)
	}

	if vote := fuse(VoteConfig(), nil); vote.Rounds != 1 || vote.Moves != nil {
		t.Fatalf("VOTE: %d rounds, moves %v", vote.Rounds, vote.Moves)
	}
}
