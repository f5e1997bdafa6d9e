package twolayer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// stepFuse is FuseCompiledWarm (cold) sequenced through the exported step
// API the way an outside caller does it: NewRun, the starting parameters
// broadcast, then per round InferStatements and InferTruth, SourcePartials
// and ExtractorPartials into the caller's own buffers, the three update
// formulas with their MinEvidence skips, the largest source move and the
// broadcast; after the last round one more E-step, Result and State. skipped
// counts the source updates the MinEvidence floor skipped.
func stepFuse(t *testing.T, g *extract.Compiled, cfg Config) (res *fusion.Result, st *State, moves []float64, skipped int) {
	t.Helper()
	run, err := NewRun(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nS, nX := run.NumSources(), run.NumExtractors()
	srcAcc := make([]float64, nS)
	recall := make([]float64, nX)
	falsePos := make([]float64, nX)
	for s := range srcAcc {
		srcAcc[s] = cfg.InitSourceAccuracy
	}
	for x := range recall {
		recall[x], falsePos[x] = cfg.InitRecall, cfg.InitFalsePos
	}
	broadcast := func() {
		for s, a := range srcAcc {
			run.SetSourceAccuracy(int32(s), a)
		}
		for x := range recall {
			run.SetExtractorRates(int32(x), recall[x], falsePos[x])
		}
	}
	broadcast()
	num, den := make([]float64, nS), make([]float64, nS)
	ext := make([][4]float64, nX)
	for len(moves) < cfg.Rounds {
		run.InferStatements()
		run.InferTruth()
		run.SourcePartials(num, den)
		maxDelta := 0.0
		for s := range srcAcc {
			if den[s] < MinEvidence {
				skipped++
				continue
			}
			v := SourceAccuracyUpdate(num[s], den[s], cfg.InitSourceAccuracy)
			maxDelta = math.Max(maxDelta, math.Abs(v-srcAcc[s]))
			srcAcc[s] = v
		}
		run.ExtractorPartials(ext)
		for x, tot := range ext {
			if tot[0] > MinEvidence {
				recall[x] = RecallUpdate(tot[2], tot[0])
			}
			if tot[1] > MinEvidence {
				falsePos[x] = FalsePosUpdate(tot[3], tot[1])
			}
		}
		broadcast()
		moves = append(moves, maxDelta)
		if maxDelta < ConvergeTol {
			break
		}
	}
	run.InferStatements()
	run.InferTruth()
	return run.Result(len(moves)), run.State(), moves, skipped
}

// stepExtractions is a feed whose sources span the M-step's cases: twelve
// extractors agree on every triple of 30 pages (recall and precision climb
// to the clamps), each of them alone extracts one triple of its own on 4
// more pages (so once the rates are learned, every statement there is a
// miss for eleven reliable extractors, and those pages' evidence falls
// under MinEvidence), and 400 random extractions scatter over 20 noisy pages.
func stepExtractions() []extract.Extraction {
	rng := rand.New(rand.NewSource(9))
	var xs []extract.Extraction
	add := func(subj, obj string, x int, url string) {
		xs = append(xs, extract.Extraction{
			Triple:     kb.Triple{Subject: kb.EntityID(subj), Predicate: "/x/p", Object: kb.StringObject(obj)},
			Extractor:  fmt.Sprintf("E%d", x),
			URL:        url,
			Site:       url,
			Confidence: -1,
		})
	}
	for page := range 30 {
		for i := range 8 {
			for x := range 12 {
				add(fmt.Sprintf("a%d.%d", page, i), "v0", x, fmt.Sprintf("http://agree.example/%d", page))
			}
		}
	}
	for page := range 4 {
		for x := range 12 {
			add(fmt.Sprintf("b%d.%d", page, x), fmt.Sprintf("v%d", x%3), x, fmt.Sprintf("http://alone.example/%d", page))
		}
	}
	for range 400 {
		add(fmt.Sprintf("a%d.%d", rng.Intn(30), rng.Intn(8)), fmt.Sprintf("v%d", rng.Intn(3)), rng.Intn(12), fmt.Sprintf("http://noisy.example/%d", rng.Intn(20)))
	}
	return xs
}

// TestStepAPIMatchesFuse holds the exported step API — NewRun, the two
// E-steps, SourcePartials, ExtractorPartials, SourceAccuracyUpdate,
// RecallUpdate and FalsePosUpdate, SetSourceAccuracy and SetExtractorRates,
// Result and State, sequenced by the caller — to FuseCompiledWarm's exact
// bits: rows, source accuracies, round count and State, on a configuration
// that converges and on one the Rounds cap stops, at Workers 1, 2 and 7.
// FuseLockstep merges through the lockstep skeleton, and a caller of the
// step API merges itself, so this keeps the two from drifting apart.
func TestStepAPIMatchesFuse(t *testing.T) {
	g := extract.Compile(stepExtractions(), false)
	converging := DefaultConfig()
	converging.Rounds = 60
	capped := DefaultConfig()
	capped.Rounds = 3
	skips := 0
	for _, tc := range []struct {
		name      string
		cfg       Config
		converges bool
	}{{"converging", converging, true}, {"capped", capped, false}} {
		for _, workers := range []int{1, 2, 7} {
			cfg := tc.cfg
			cfg.Workers = workers
			at := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			want, wantSt, err := FuseCompiledWarm(g, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, moves, skipped := stepFuse(t, g, cfg)
			skips += skipped
			if converged := moves[len(moves)-1] < ConvergeTol; converged != tc.converges || !converged && len(moves) != cfg.Rounds {
				t.Fatalf("%s: %d rounds of %d, last move %v: the case is meant to converge=%v", at, len(moves), cfg.Rounds, moves[len(moves)-1], tc.converges)
			}
			if got.Rounds != want.Rounds || got.Unpredicted != want.Unpredicted {
				t.Fatalf("%s: rounds %d, unpredicted %d; FuseCompiledWarm: %d, %d", at, got.Rounds, got.Unpredicted, want.Rounds, want.Unpredicted)
			}
			if len(got.Triples) != len(want.Triples) {
				t.Fatalf("%s: %d rows, FuseCompiledWarm %d", at, len(got.Triples), len(want.Triples))
			}
			for i := range want.Triples {
				if got.Triples[i] != want.Triples[i] {
					t.Fatalf("%s: row %d is %+v, FuseCompiledWarm's %+v", at, i, got.Triples[i], want.Triples[i])
				}
			}
			if len(got.ProvAccuracy) != len(want.ProvAccuracy) {
				t.Fatalf("%s: %d accuracies, FuseCompiledWarm %d", at, len(got.ProvAccuracy), len(want.ProvAccuracy))
			}
			for _, key := range g.SourceKeys() {
				if a, ok := got.ProvAccuracy[key]; !ok || math.Float64bits(a) != math.Float64bits(want.ProvAccuracy[key]) {
					t.Fatalf("%s: accuracy of %q is %v, FuseCompiledWarm's %v", at, key, a, want.ProvAccuracy[key])
				}
			}
			if !bitsEqual(gotSt.SrcAcc, wantSt.SrcAcc) || !bitsEqual(gotSt.Recall, wantSt.Recall) || !bitsEqual(gotSt.FalsePos, wantSt.FalsePos) {
				t.Fatalf("%s: State vectors differ from FuseCompiledWarm's", at)
			}
		}
	}
	if skips == 0 {
		t.Fatal("no source update fell under MinEvidence: the feed no longer exercises the skip")
	}
}
