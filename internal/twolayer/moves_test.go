package twolayer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
)

// TestPosteriorMoves is fusion's TestPosteriorMoves for the two-layer driver:
// one largest source-accuracy move per executed round, below ConvergeTol only
// in the last round of a run that stopped on it, exactly the cap in a
// round-capped run, and bit-identical across Workers and between the K=1
// identity tables and explicit ones.
func TestPosteriorMoves(t *testing.T) {
	g := extract.Compile(randomExtractions(rand.New(rand.NewSource(4)), 300), false)
	fuse := func(cfg Config, ids *Shards) *fusion.Posterior {
		t.Helper()
		p, _, err := FuseLockstep([]*extract.Compiled{g}, ids, cfg, nil)
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

	cfg := DefaultConfig()
	cfg.Rounds = 100
	stopped := fuse(cfg, nil)
	if stopped.Rounds < 3 || stopped.Rounds >= cfg.Rounds || len(stopped.Moves) != stopped.Rounds {
		t.Fatalf("converged run: %d rounds of %d, %d moves", stopped.Rounds, cfg.Rounds, len(stopped.Moves))
	}
	for r, m := range stopped.Moves {
		if last := r == len(stopped.Moves)-1; (m < ConvergeTol) != last {
			t.Fatalf("round %d of %d moved %v against ConvergeTol %v", r+1, stopped.Rounds, m, ConvergeTol)
		}
	}

	capped := cfg
	capped.Rounds = stopped.Rounds - 1
	got := fuse(capped, nil)
	if got.Rounds != capped.Rounds {
		t.Fatalf("capped run: %d rounds, cap %d", got.Rounds, capped.Rounds)
	}
	sameBits("capped run", got.Moves, stopped.Moves[:capped.Rounds])

	explicit := &Shards{Sources: csr.IdentityTable(g.SourceKeys()), Extractors: csr.IdentityTable(g.ExtractorNames())}
	for _, workers := range []int{1, 2, 4, 8} {
		w := cfg
		w.Workers = workers
		sameBits(fmt.Sprintf("workers=%d", workers), fuse(w, nil).Moves, stopped.Moves)
		sameBits(fmt.Sprintf("workers=%d explicit tables", workers), fuse(w, explicit).Moves, stopped.Moves)
	}
}
