package twolayer

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// The carried-≡-fresh suite. A warm chain hands each run the State of the
// one before; handed over as it is, the State carries the step engines, and
// the next run rebinds them and may revise their last E-step instead of
// recomputing it. Handed over through EncodeState/DecodeState it carries
// three vectors and nothing else, so the next run builds fresh engines and
// takes the full pass. Every test here runs both and requires the same bits:
// probabilities, State vectors, round counts.

// chainBatch draws n records of a small colliding world that widens with
// step: the extractor fleet and the page pool grow, so later batches keep
// pairing old pages with extractors new to them (which moves the page's
// miss base and puts its old statements into the new extractor's span), turn
// old misses into hits, and bring new pages, items and triples.
func chainBatch(rng *rand.Rand, n, step int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	for i := range xs {
		site := rng.Intn(4 + step/5)
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(20+step))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(2))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(4))),
			},
			Extractor:  fmt.Sprintf("E%d", rng.Intn(3+step/6)),
			URL:        fmt.Sprintf("http://site%d.example/p%d", site, rng.Intn(6)),
			Site:       fmt.Sprintf("site%d.example", site),
			Confidence: -1,
		}
	}
	return xs
}

// viaCodec is the State as a snapshot would bring it back.
func viaCodec(t testing.TB, st *State) *State {
	t.Helper()
	if st == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := EncodeState(&buf, st); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeState(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func fuseOne(t testing.TB, g *extract.Compiled, cfg Config, seed *State) (*fusion.Posterior, *State) {
	t.Helper()
	post, st, err := FuseLockstep([]*extract.Compiled{g}, nil, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return post, st
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameBits compares two runs' outputs bit for bit.
func requireSameBits(t testing.TB, tag string, got, want *fusion.Posterior, gotSt, wantSt *State) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: %d rounds, want %d", tag, got.Rounds, want.Rounds)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", tag, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if math.Float64bits(got.Prob(i)) != math.Float64bits(want.Prob(i)) {
			t.Fatalf("%s: row %d (%v): probability %v, want %v", tag, i, got.Triple(i), got.Prob(i), want.Prob(i))
		}
	}
	if !bitsEqual(gotSt.SrcAcc, wantSt.SrcAcc) || !bitsEqual(gotSt.Recall, wantSt.Recall) || !bitsEqual(gotSt.FalsePos, wantSt.FalsePos) {
		t.Fatalf("%s: State vectors differ", tag)
	}
}

// warmBudgets are the round caps of the chain's warm steps, cycled.
var warmBudgets = []int{5, 1, 3, 1, 1, 3, 2, 1}

// TestCarriedChainMatchesFresh walks a 30-step chain — cold head, then warm
// steps under the cycled round budgets, batch sizes random with empty batches
// among them — at both source levels and Workers 1 and 4.
// The carried chain must equal the fresh one at every step, and must really
// have been carried: from the second warm step on every first E-step is a
// dirty pass, and over the chain they score a fraction of what full passes
// would.
func TestCarriedChainMatchesFresh(t *testing.T) {
	for _, siteLevel := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			tag := fmt.Sprintf("site=%v workers=%d", siteLevel, workers)
			cold := DefaultConfig()
			cold.SiteLevel, cold.Workers = siteLevel, workers
			rng := rand.New(rand.NewSource(71))
			g := extract.Compile(chainBatch(rng, 600, 0), siteLevel)
			carriedPost, carried := fuseOne(t, g, cold, nil)
			freshPost, fresh := fuseOne(t, g, cold, nil)
			requireSameBits(t, tag+" cold", carriedPost, freshPost, carried, fresh)
			scored, full := 0, 0
			for step := 0; step < 30; step++ {
				n := rng.Intn(80)
				if step%7 == 3 {
					n = 0
				}
				g = g.Append(chainBatch(rng, n, step))
				cfg := cold
				cfg.Rounds = warmBudgets[step%len(warmBudgets)]
				carriedPost, carried = fuseOne(t, g, cfg, carried)
				freshPost, fresh = fuseOne(t, g, cfg, viaCodec(t, fresh))
				requireSameBits(t, fmt.Sprintf("%s step %d", tag, step), carriedPost, freshPost, carried, fresh)
				s, n, ok := FirstPass(carried)
				if !ok {
					t.Fatalf("%s step %d: a seeded run left no engines on its State", tag, step)
				}
				if step > 0 {
					scored, full = scored+s, full+n
				}
				if _, _, ok := FirstPass(fresh); !ok {
					t.Fatalf("%s step %d: the decoded-seed run left no engines", tag, step)
				}
			}
			if scored*3 > full {
				t.Fatalf("%s: the carried chain's first E-steps scored %d statements of %d: the dirty pass is not being taken", tag, scored, full)
			}
		}
	}
}

// firstPass fuses g seeded from seed and reports how many statements the
// run's first E-step scored.
func firstPass(t *testing.T, g *extract.Compiled, cfg Config, seed *State) (post *fusion.Posterior, st *State, scored int) {
	t.Helper()
	post, st = fuseOne(t, g, cfg, seed)
	scored, _, ok := FirstPass(st)
	if !ok {
		t.Fatal("a seeded run left no engines on its State")
	}
	return post, st, scored
}

// TestCarriedFullPassWhereUnprovable covers what the engine cannot prove and
// what it must notice. Each case seeds one run with a live State and one with
// the same State through the codec (edits included), requires equal bits, and
// pins which pass the live one took.
func TestCarriedFullPassWhereUnprovable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 1
	rng := rand.New(rand.NewSource(5))
	head := chainBatch(rng, 900, 12)
	batch := func(n int) []extract.Extraction { return chainBatch(rng, n, 14) }

	// chain returns generation A fused warm once (so its State carries
	// engines that ran on A) and A itself.
	chain := func() (*extract.Compiled, *State) {
		a := extract.Compile(head, cfg.SiteLevel)
		_, st := fuseOne(t, a, DefaultConfig(), nil)
		_, st = fuseOne(t, a, cfg, st)
		return a, st
	}
	check := func(tag string, g *extract.Compiled, c Config, live, decoded *State, wantFull bool) int {
		t.Helper()
		post, st, scored := firstPass(t, g, c, live)
		wantPost, wantSt := fuseOne(t, g, c, decoded)
		requireSameBits(t, tag, post, wantPost, st, wantSt)
		if full := scored == g.NumStatements(); full != wantFull {
			t.Fatalf("%s: first E-step scored %d of %d statements; full pass = %v, want %v", tag, scored, g.NumStatements(), full, wantFull)
		}
		return scored
	}

	t.Run("successor", func(t *testing.T) {
		a, st := chain()
		check("A→B", a.Append(batch(40)), cfg, st, viaCodec(t, st), false)
	})
	t.Run("same graph", func(t *testing.T) {
		a, st := chain()
		if scored := check("A again", a, cfg, st, viaCodec(t, st), false); scored != 0 {
			t.Fatalf("re-fusing the graph the engines ran on scored %d statements, want 0", scored)
		}
		a, st = chain()
		check("A, then an empty Append", a.Append(nil), cfg, st, viaCodec(t, st), false)
	})
	t.Run("fork", func(t *testing.T) {
		a, st := chain()
		b, b2 := a.Append(batch(40)), a.Append(batch(55))
		dec := viaCodec(t, st)
		_, stB, _ := firstPass(t, b, cfg, st)
		// A second successor of A's State finds no engines; B's engines on
		// B′ — a sibling, not a successor — must not trust what they hold.
		post, st2 := fuseOne(t, b2, cfg, st)
		wantPost, wantSt := fuseOne(t, b2, cfg, dec)
		requireSameBits(t, "A→B′ from A's State again", post, wantPost, st2, wantSt)
		check("B's engines on B′", b2, cfg, stB, viaCodec(t, stB), true)
	})
	t.Run("skipped generation", func(t *testing.T) {
		a, st := chain()
		c := a.Append(batch(30)).Append(batch(30))
		check("A→·→C", c, cfg, st, viaCodec(t, st), true)
	})
	t.Run("changed PriorStated", func(t *testing.T) {
		a, st := chain()
		other := cfg
		other.PriorStated = 0.4
		check("prior 0.5→0.4", a.Append(batch(40)), other, st, viaCodec(t, st), true)
	})
	t.Run("changed InitSourceAccuracy", func(t *testing.T) {
		// Moves no table entry of an old source — the check on the
		// configuration is what sends this one down the full pass.
		a, st := chain()
		other := cfg
		other.InitSourceAccuracy = 0.7
		check("init accuracy 0.8→0.7", a.Append(batch(40)), other, st, viaCodec(t, st), true)
	})
	t.Run("changed budget and workers", func(t *testing.T) {
		a, st := chain()
		other := cfg
		other.Rounds, other.Workers = 3, 3
		check("rounds and workers", a.Append(batch(40)), other, st, viaCodec(t, st), false)
	})
	t.Run("edited extractor rate", func(t *testing.T) {
		a, st := chain()
		st.Recall[1] = 0.4321
		check("Recall[1]", a.Append(batch(40)), cfg, st, viaCodec(t, st), true)
	})
	t.Run("extractor ratio moved under an unmoved miss base", func(t *testing.T) {
		// Rates can change so that log(1-r)-log(1-f), and with it every
		// source's miss base, keeps its bits while the hit correction moves
		// ((r, f) = (0.5, 0.25) → (0.75, 0.625) does it). A run's own rates
		// cannot be steered there, so the carried table is: whatever lrAdj
		// the carried E-step claims to have run under, a different one now is
		// the full pass.
		a, st := chain()
		st.engines[0].lrAdj[1] += 0.125
		check("lrAdj[1]", a.Append(batch(40)), cfg, st, viaCodec(t, st), true)
	})
	t.Run("edited source accuracy", func(t *testing.T) {
		a, st := chain()
		// The busiest source, so the edit is visible in many items.
		src := int32(0)
		for s := int32(0); int(s) < a.NumSources(); s++ {
			if len(a.SourceStatements(s)) > len(a.SourceStatements(src)) {
				src = s
			}
		}
		before := st.SrcAcc[src]
		st.SrcAcc[src] = 0.3
		// An empty Append: the dirty set is that source's statements alone.
		scored := check("SrcAcc edited", a.Append(nil), cfg, st, viaCodec(t, st), false)
		if want := len(a.SourceStatements(src)); scored != want {
			t.Fatalf("editing source %d's accuracy %v→0.3 re-scored %d statements; the source has %d", src, before, scored, want)
		}
	})
	t.Run("NaN in the State", func(t *testing.T) {
		// Not a legal State (genstore refuses one), but FuseLockstep takes
		// what it is given: both paths must give it the same meaning.
		a, st := chain()
		st.SrcAcc[2] = math.NaN()
		check("SrcAcc NaN", a.Append(batch(20)), cfg, st, viaCodec(t, st), false)
	})
}

// TestSameModelCoversEveryField walks Config by reflection, so a field added
// later is covered without anyone remembering this test: changing any field
// but the round cap and the worker bound is another model.
func TestSameModelCoversEveryField(t *testing.T) {
	base := DefaultConfig()
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		other := base
		f := reflect.ValueOf(&other).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() / 2)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("Config.%s has kind %v: teach this test (and sameModel) about it", v.Type().Field(i).Name, f.Kind())
		}
		name := v.Type().Field(i).Name
		if got, want := sameModel(base, other), name == "Rounds" || name == "Workers"; got != want {
			t.Fatalf("sameModel with Config.%s changed = %v, want %v", name, got, want)
		}
	}
}

// TestCarriedDirtySetIsNeeded is the suite's own mutation check, run against
// the data instead of the code: on the chain TestCarriedChainMatchesFresh
// walks there are steps where each part of the dirty set — the statements
// whose extractor list grew, the old statements of a source whose miss base
// moved, the items owning either — changes bits that the new statements
// alone would not. Without such steps that test could not tell a dirty pass
// that skips a part from one that does not.
func TestCarriedDirtySetIsNeeded(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(71))
	g := extract.Compile(chainBatch(rng, 600, 0), cfg.SiteLevel)
	grownSteps, pairedSteps := 0, 0
	for step := 0; step < 30; step++ {
		n := rng.Intn(80)
		if step%7 == 3 {
			n = 0
		}
		next := g.Append(chainBatch(rng, n, step))
		if _, _, grown := next.Parent(); len(grown) > 0 {
			grownSteps++
		}
		if next.NumSourceExtractors()-g.NumSourceExtractors() > 0 {
			for s := int32(0); int(s) < g.NumSources(); s++ {
				if len(next.SourceExtractors(s)) > len(g.SourceExtractors(s)) && len(g.SourceStatements(s)) > 0 {
					pairedSteps++
					break
				}
			}
		}
		g = next
	}
	if grownSteps < 10 || pairedSteps < 5 {
		t.Fatalf("the chain grows an old statement's extractor list on %d steps and pairs an old source with a new extractor on %d: too few to pin the dirty set", grownSteps, pairedSteps)
	}
}

// TestCarriedEnginesAreTakenOnce runs two successors of one State at the
// same time (under -race in CI): exactly one of them recycles the State's
// engine, the other builds its own, no buffer is shared, and both produce
// the bits of a fresh run.
func TestCarriedEnginesAreTakenOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 1
	rng := rand.New(rand.NewSource(9))
	a := extract.Compile(chainBatch(rng, 900, 12), cfg.SiteLevel)
	_, st := fuseOne(t, a, DefaultConfig(), nil)
	_, st = fuseOne(t, a, cfg, st)
	original := st.engines[0]
	b := a.Append(chainBatch(rng, 60, 14))
	wantPost, wantSt := fuseOne(t, b, cfg, viaCodec(t, st))

	var wg sync.WaitGroup
	posts := make([]*fusion.Posterior, 2)
	states := make([]*State, 2)
	errs := make([]error, 2)
	for i := range posts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			posts[i], states[i], errs[i] = FuseLockstep([]*extract.Compiled{b}, nil, cfg, st)
		}()
	}
	wg.Wait()
	recycled := 0
	for i := range posts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireSameBits(t, fmt.Sprintf("successor %d", i), posts[i], wantPost, states[i], wantSt)
		if states[i].engines[0] == original {
			recycled++
		}
	}
	if recycled != 1 || states[0].engines[0] == states[1].engines[0] {
		t.Fatalf("%d of two concurrent successors recycled the State's engine, want exactly one", recycled)
	}
	e0, e1 := states[0].engines[0], states[1].engines[0]
	if &e0.stated[0] == &e1.stated[0] || &e0.tripleP[0] == &e1.tripleP[0] || &e0.srcBase[0] == &e1.srcBase[0] {
		t.Fatal("two engines share a buffer")
	}
	if st.engines != nil {
		t.Fatal("the State still holds engines after a successor took them")
	}
}

// TestColdRunLeavesNoEngines pins the other half of the hand-off rule: an
// unseeded run — a sweep's, as likely as a chain's first — attaches nothing
// to its State, so keeping the State does not keep an engine.
func TestColdRunLeavesNoEngines(t *testing.T) {
	g := extract.Compile(chainBatch(rand.New(rand.NewSource(3)), 300, 0), false)
	_, st := fuseOne(t, g, DefaultConfig(), nil)
	if _, _, ok := FirstPass(st); ok {
		t.Fatal("a cold run left engines on its State")
	}
}
