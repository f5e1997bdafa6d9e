package fusion

import (
	"fmt"
	"sync"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
)

// RowGraph is what a Posterior asks of a compiled graph to assemble an output
// row: the deduplicated triple column and the three support counts a
// FusedTriple reports. The claim graph (*Compiled) and the extraction graph
// (*extract.Compiled) both implement it, which is what lets the two-layer
// engine return the same Posterior.
type RowGraph interface {
	NumTriples() int
	// Triples returns the triple column, compiled triple ID -> triple. It is
	// a read-only view, not a copy.
	Triples() []kb.Triple
	// Support returns triple t's support counts: the provenances (claim
	// graph) or statements (extraction graph) asserting it, those asserting
	// anything about its data item, and its distinct extractors.
	Support(t int) (provenances, itemProvenances, extractors int)
}

// Posterior is a fusion run's result in the engine's own form — the native
// form, where Result is the exchange form. It holds what the run computed
// and nothing the compiled graphs already hold: one probability per compiled
// triple, in graph-major compiled order, and one accuracy per global
// provenance (or two-layer source) ID beside the key column those IDs index.
// A row's triple and support counts are columns and CSR offsets of the
// graphs the run fused; Row assembles them on request and Result builds the
// whole exchange form. A Posterior is immutable once a round driver returns
// it and safe for concurrent readers; it keeps its graphs reachable for as
// long as it is held.
//
// The round drivers (FuseLockstep here, twolayer.FuseLockstep) return a
// Posterior; everything that hands a caller a *Result materialises one. A
// chain that only needs a few rows per generation — the served append —
// keeps the Posterior and never builds the rest.
type Posterior struct {
	// Rounds is the number of EM rounds executed (1 for VOTE).
	Rounds int
	// Unpredicted counts triples for which filtering removed all evidence.
	Unpredicted int
	// Moves holds one value per executed EM round: the round's largest
	// parameter move, which the driver tested for convergence — the largest
	// provenance-accuracy change here (against Epsilon), the largest
	// source-accuracy change in twolayer.FuseLockstep (against its
	// ConvergeTol). VOTE has no stage II and records none, nor does a
	// posterior rebuilt from an exchange-form result (PosteriorOf) or read
	// back from a snapshot.
	Moves []float64

	graphs []RowGraph
	starts []int     // starts[s] is graph s's first row; len(graphs)+1 long
	prob   []float64 // row -> probability; -1 = no evidence left by the filters

	// seed holds the accuracy column (and the step engines): the part of the
	// posterior the next generation starts from, and the only part a Result
	// materialised from it keeps a pointer to.
	seed *Seed

	// workers bounds Result's row assembly, as Config.Workers bounded the run.
	workers int
}

// Seed is what warm-starts a run — what one generation hands the next. It
// comes from a posterior (Posterior.Seed, or Result.Seed on a result
// materialised from one) and then holds the accuracies in global
// provenance-ID order beside the key column those IDs index, so a later
// generation of the same chain seeds by ID; or from a decoded or hand-built
// Result, and then holds only that result's accuracies by key. It never
// holds rows or graphs: keeping a Result, or a Seed, pins no graph
// generation.
//
// A seed that came from a warm-started claim-engine run also carries the
// step engines that produced it, for the next generation to take (see
// FuseLockstep). They are its one mutable part, guarded by a mutex and
// handed on at most once.
type Seed struct {
	keys []string  // global provenance / source ID -> key
	acc  []float64 // global provenance / source ID -> accuracy

	// byKey is the keyed form's map; keys and acc are then nil.
	byKey map[string]float64

	mu      sync.Mutex
	engines []*engine
}

// NewPosterior wraps a round driver's output columns: prob holds one
// probability per triple of graphs, graph-major (-1 where the filters left
// no evidence), acc one accuracy per entry of the key column keys. The
// slices are retained, not copied. A nil prob — the two-layer engine's
// empty row set — materialises as nil Result.Triples, an empty non-nil one
// as an empty non-nil slice.
func NewPosterior(graphs []RowGraph, prob []float64, keys []string, acc []float64, rounds, workers int) *Posterior {
	p := &Posterior{Rounds: rounds, graphs: graphs, prob: prob, seed: &Seed{keys: keys, acc: acc}, workers: workers}
	p.starts = make([]int, len(graphs)+1)
	for s, g := range graphs {
		p.starts[s+1] = p.starts[s] + g.NumTriples()
	}
	for _, v := range prob {
		if v == -1 {
			p.Unpredicted++
		}
	}
	return p
}

// Validate reports whether r holds only values a run produces: every
// probability the -1 sentinel or a number in [0,1], Predicted set exactly
// where the probability is not the sentinel, every accuracy a number in
// [0,1]. A decoded or handed-in result is outside input and nothing
// downstream looks at the numbers again — the accuracies seed every later
// warm round, and a NaN passes every clamp — so whoever takes one in checks
// it here first (PosteriorOf; the genstore snapshot decoder, on the result
// it materialises from the stored columns).
func (r *Result) Validate() error {
	for i := range r.Triples {
		f := &r.Triples[i]
		if p := f.Probability; !(p == -1 || p >= 0 && p <= 1) { // also catches NaN
			return fmt.Errorf("fusion: result row %d holds probability %v, neither -1 nor in [0,1]", i, p)
		}
		if f.Predicted != (f.Probability != -1) {
			return fmt.Errorf("fusion: result row %d holds probability %v with predicted=%v", i, f.Probability, f.Predicted)
		}
	}
	bad, found := "", false
	//lint:ignore kflint/mapiter the smallest offending key is reported, whichever order the map is walked in.
	for key, a := range r.ProvAccuracy {
		if !(a >= 0 && a <= 1) && (!found || key < bad) {
			bad, found = key, true
		}
	}
	if found {
		return fmt.Errorf("fusion: result holds accuracy %v for %q, outside [0,1]", r.ProvAccuracy[bad], bad)
	}
	return nil
}

// PosteriorOf returns the native form of an exchange-form result over the
// graphs it was fused on (in shard order) and the key column its accuracies
// are to be indexed by — how a result fused through the public API re-enters
// a holder of posteriors: the genstore snapshot writer, for a state whose
// Result is not its Posterior's materialisation. The values are checked
// first (Result.Validate), then everything the native form leaves to the
// graphs is checked against them — the row count, every row's triple and
// support counts, Unpredicted, and that the accuracy map holds exactly the
// keys — so a result paired with another generation's graph is an error,
// never a wrong row. The posterior's Result() equals res on every exported
// field.
func PosteriorOf(res *Result, keys []string, graphs ...RowGraph) (*Posterior, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	var prob []float64
	if res.Triples != nil {
		prob = make([]float64, len(res.Triples))
	}
	for i := range res.Triples {
		prob[i] = res.Triples[i].Probability
	}
	acc := make([]float64, len(keys))
	p := NewPosterior(graphs, prob, keys, acc, res.Rounds, 0)
	if n := p.starts[len(graphs)]; n != len(res.Triples) {
		return nil, fmt.Errorf("fusion: result has %d rows, its graphs %d triples", len(res.Triples), n)
	}
	for i, f := range res.Triples {
		// The probability is a copy of the row's own, and Validate has
		// passed it.
		if got := p.Row(i); got != f {
			return nil, fmt.Errorf("fusion: result row %d is %+v, its graph holds %+v", i, res.Triples[i], p.Row(i))
		}
	}
	if p.Unpredicted != res.Unpredicted {
		return nil, fmt.Errorf("fusion: result counts %d unpredicted rows, holds %d", res.Unpredicted, p.Unpredicted)
	}
	if len(res.ProvAccuracy) != len(keys) {
		return nil, fmt.Errorf("fusion: result holds %d accuracies, its graphs %d keys", len(res.ProvAccuracy), len(keys))
	}
	for g, key := range keys {
		a, ok := res.ProvAccuracy[key]
		if !ok {
			return nil, fmt.Errorf("fusion: result holds no accuracy for %q", key)
		}
		acc[g] = a
	}
	return p, nil
}

// Seed returns the part of the posterior the next generation starts from
// (nil for a nil posterior).
func (p *Posterior) Seed() *Seed {
	if p == nil {
		return nil
	}
	return p.seed
}

// Accuracies returns the accuracy column and the key column it is indexed
// by: global provenance (or two-layer source) ID -> accuracy, and ID -> key.
// Both are read-only views, not copies.
func (p *Posterior) Accuracies() (keys []string, acc []float64) {
	return p.seed.keys, p.seed.acc
}

// Len reports the number of rows: the compiled triples of the graphs.
func (p *Posterior) Len() int { return len(p.prob) }

// Prob returns row i's probability, -1 when the filters left it none.
func (p *Posterior) Prob(i int) float64 { return p.prob[i] }

// Triple returns row i's triple, straight from its graph's triple column.
func (p *Posterior) Triple(i int) kb.Triple {
	g, t := p.locate(i)
	return g.Triples()[t]
}

// Row assembles output row i — what Result().Triples[i] holds.
func (p *Posterior) Row(i int) FusedTriple {
	g, t := p.locate(i)
	var row FusedTriple
	assembleRow(&row, g, g.Triples(), t, p.prob[i])
	return row
}

// locate maps a row to its graph and the triple's ID there.
func (p *Posterior) locate(i int) (RowGraph, int) {
	s := 0
	for i >= p.starts[s+1] {
		s++ // a handful of graphs at most
	}
	return p.graphs[s], i - p.starts[s]
}

// assembleRow is the one row assembler: it writes g's triple t (triples is
// g.Triples(), fetched once by a caller that assembles many) with
// probability prob into row, in place. Everything but the probability comes
// from the compiled graph.
func assembleRow(row *FusedTriple, g RowGraph, triples []kb.Triple, t int, prob float64) {
	row.Triple = triples[t]
	row.Probability = prob
	row.Predicted = prob != -1
	row.Provenances, row.ItemProvenances, row.Extractors = g.Support(t)
}

// Result materialises the exchange form: every row, in parallel over each
// graph's triples, and the full accuracy map. Each call builds a fresh
// Result; callers that ask repeatedly keep the one they got.
func (p *Posterior) Result() *Result {
	res := &Result{Rounds: p.Rounds, Unpredicted: p.Unpredicted, seed: p.seed}
	if p.prob != nil {
		res.Triples = make([]FusedTriple, len(p.prob))
	}
	for s, g := range p.graphs {
		rows, prob := res.Triples[p.starts[s]:p.starts[s+1]], p.prob[p.starts[s]:p.starts[s+1]]
		workers := p.workers
		if len(rows) < csr.ElementwiseThreshold {
			workers = 1 // goroutine setup would dominate
		}
		triples := g.Triples()
		csr.ParallelRange(len(rows), workers, func(_, lo, hi int) {
			for t := lo; t < hi; t++ {
				assembleRow(&rows[t], g, triples, t, prob[t])
			}
		})
	}
	res.ProvAccuracy = p.seed.accuracyMap()
	return res
}

// accuracyMap returns the key -> accuracy map of the exchange form: built
// from the columns, or the keyed form's own.
func (s *Seed) accuracyMap() map[string]float64 {
	if s.byKey != nil {
		return s.byKey
	}
	m := make(map[string]float64, len(s.keys))
	for g, key := range s.keys {
		m[key] = s.acc[g]
	}
	return m
}

// takeEngines hands the seed's step engines to the caller if it still holds
// exactly n of them, and nil otherwise. Whoever gets them owns them: a
// second successor of the same seed finds none and builds its own.
func (s *Seed) takeEngines(n int) []*engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.engines) != n {
		return nil
	}
	es := s.engines
	s.engines = nil
	return es
}
