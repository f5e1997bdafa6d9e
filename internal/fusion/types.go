// Package fusion implements the paper's core contribution: knowledge fusion
// by adaptation of three data-fusion methods — VOTE, ACCU and POPACCU — plus
// the four refinements of §4.3 (provenance granularity, coverage filtering,
// accuracy filtering, gold-standard accuracy initialization), executed as the
// three-stage MapReduce pipeline of Figure 8 with per-reducer sampling (L)
// and a forced round cap (R).
//
// The input is the three-dimensional extraction matrix flattened into
// (triple, provenance) claims, where a provenance is an (extractor, URL)
// pair — or a coarser/finer key under the granularity refinements. The
// output is a calibrated probability of truth per unique triple.
//
// # Compile-once architecture
//
// The paper's scalability answer (§3.2.2, Figure 8) is a MapReduce pipeline
// tuned so iterations are cheap. Fuse realizes that here by splitting a run
// into a one-time compilation and allocation-free rounds:
//
//   - compile (compile.go) interns provenances, extractors, data items and
//     candidate triples into dense int32 IDs — every space in
//     first-occurrence order of the claim stream, with no key strings
//     built — and builds CSR adjacency with a parallel counting sort
//     (item → claim spans, provenance → claim spans, triple → claim spans,
//     claim → prov/candidate IDs). Figure 8's Stage III dedup (grouping
//     claims into unique triples) is the triple interning itself.
//   - Stage I scores items by walking flat CSR spans with provenance
//     accuracies in a []float64 indexed by prov ID; per-item candidate
//     state lives in dense per-worker scratch arrays.
//   - Stage II re-estimates each provenance's accuracy over its claim span.
//   - Stage III attaches final probabilities to the precomputed triple set.
//
// Rounds allocate nothing and never rehash or reshuffle; results are
// deterministic and independent of Config.Workers. FuseReference preserves
// the original shuffle-per-round engine as the golden oracle the compiled
// engine is regression-tested against (see equivalence_test.go).
//
// # Compile/Fuse split, append-only generations
//
// The compiled graph is a first-class, reusable artifact: Compile interns a
// claim set once into a Compiled handle, and (*Compiled).Fuse runs any
// number of configurations over it. The graph depends only on the claims —
// provenance accuracies and all other per-run state live in the engine each
// Fuse call builds — so multi-config workloads (method comparisons,
// θ/coverage sweeps, the ablation suite) pay for interning once and results
// stay bit-identical to compile-per-config fusion.Fuse calls. Interning
// itself is sharded on large inputs from four workers on (per-worker shard
// interning, then one fold of the shards' keys into the graph's tables in
// stream order; the one sequential loop below that).
// fusion.Fuse remains the one-shot compile-then-fuse convenience.
//
// Because every ID space is assigned in first-occurrence order, a Compiled
// is also one generation of an append-only claim feed: (*Compiled).Append
// extends the graph with a batch — re-hashing nothing but the batch —
// bit-identically to recompiling the concatenated stream, and
// (*Compiled).FuseWarm re-fuses the grown graph seeded from the previous
// generation's accuracies (one warm round per batch in streaming use; see
// FuseWarm for the two-regime equivalence contract). An extraction feed
// grows a graph through CompileExtractions and AppendExtractions, which
// flatten records into claims in the graph's own interning loop and carry
// the (provenance, triple) dedup across batches as pairs of the graph's IDs.
//
// # Native and exchange form
//
// A run's result exists in two forms. The round driver (FuseLockstep)
// returns the native one, Posterior: one probability per compiled triple and
// one accuracy per provenance ID, over the graphs the run fused — nothing the
// graphs already hold is copied, and Posterior.Row assembles an output row
// (triple, support counts, probability) when one is asked for. Result is the
// exchange form: self-contained rows and a string-keyed accuracy map, what
// the file writers, the snapshot codec, the evaluation layer and every
// public Fuse/FuseWarm speak. Posterior.Result materialises it, bit for bit
// and through the same row assembler, and the Result remembers the
// posterior's seed (Result.Seed). A caller that re-fuses generation after
// generation and reads few rows — genstore.Chain under the daemon — keeps the
// Posterior and materialises only when something needs the whole exchange
// form.
//
// A posterior's Seed is what one generation hands the next. Seeded from the
// posterior of an earlier generation of the same chain, a run installs the
// accuracies by provenance ID instead of by key and takes over the step
// engines that produced it — regrown to the new graph by the routine that
// sizes a fresh engine, not rebuilt — so a warm step allocates two result
// columns and the occasional buffer regrowth. A decoded or hand-built Result
// has no posterior behind it and seeds by key on fresh engines, to the same
// bits. See FuseLockstep for the exact conditions.
package fusion

import (
	"fmt"
	"strings"

	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// Granularity selects how an extraction's provenance key is built (§4.3.1):
// one of the six shapes the paper measures. The zero value is the paper's
// basic (Extractor, URL) provenance.
type Granularity uint8

// The granularities of the paper's experiments.
const (
	// GranExtractorURL is the basic (Extractor, URL) provenance.
	GranExtractorURL Granularity = iota
	// GranExtractorSite is (Extractor, Site).
	GranExtractorSite
	// GranExtractorSitePred is (Extractor, Site, Predicate).
	GranExtractorSitePred
	// GranExtractorSitePredPattern is (Extractor, Site, Predicate, Pattern)
	// — the best calibrated granularity in Figure 10.
	GranExtractorSitePredPattern
	// GranExtractorOnly is (Extractor, Pattern) — Figure 9's "Only ext".
	GranExtractorOnly
	// GranSourceOnly is (URL) — Figure 9's "Only src".
	GranSourceOnly
)

// shape is one granularity's provenance key: the parts below that it keeps,
// joined by '|'. Its five flags, in this order, are also the layout a
// snapshot stores (Flags).
type shape struct {
	name string // as in the paper's figures
	cli  string // ParseGranularity's name, "" for none
	// site keys the Web source at site level instead of URL level.
	site bool
	// predicate and pattern append the predicate and the extractor pattern.
	predicate, pattern bool
	// extractorOnly drops the Web source, sourceOnly keeps the URL alone.
	extractorOnly, sourceOnly bool
}

// shapes is the one place the six shapes are spelled out.
var shapes = [...]shape{
	GranExtractorURL:             {name: "(Extractor, URL)", cli: "url"},
	GranExtractorSite:            {name: "(Extractor, Site)", cli: "site", site: true},
	GranExtractorSitePred:        {name: "(Extractor, Site, Predicate)", cli: "site-pred", site: true, predicate: true},
	GranExtractorSitePredPattern: {name: "(Extractor, Site, Predicate, Pattern)", cli: "site-pred-pattern", site: true, predicate: true, pattern: true},
	GranExtractorOnly:            {name: "(Extractor, Pattern)", pattern: true, extractorOnly: true},
	GranSourceOnly:               {name: "(URL)", sourceOnly: true},
}

// String names the granularity as in the paper's figures.
func (g Granularity) String() string {
	if int(g) < len(shapes) {
		return shapes[g].name
	}
	return fmt.Sprintf("Granularity(%d)", uint8(g))
}

// Key builds the provenance key for an extraction.
func (g Granularity) Key(x extract.Extraction) string { return shapes[g].key(&x) }

// Flags returns g as five flags — site level, per predicate, per pattern,
// extractor only, source only: the layout of a snapshot's meta section.
func (g Granularity) Flags() [5]bool {
	s := &shapes[g]
	return [5]bool{s.site, s.predicate, s.pattern, s.extractorOnly, s.sourceOnly}
}

// FlagGranularity is the inverse of Flags: ok is false when f spells none of
// the six shapes.
func FlagGranularity(f [5]bool) (g Granularity, ok bool) {
	for g := range Granularity(len(shapes)) {
		if g.Flags() == f {
			return g, true
		}
	}
	return 0, false
}

func (s *shape) key(x *extract.Extraction) string {
	if s.sourceOnly {
		return x.URL
	}
	var b strings.Builder
	b.WriteString(x.Extractor)
	if !s.extractorOnly {
		b.WriteByte('|')
		if s.site {
			b.WriteString(x.Site)
		} else {
			b.WriteString(x.URL)
		}
	}
	if s.predicate {
		b.WriteByte('|')
		b.WriteString(string(x.Triple.Predicate))
	}
	if s.pattern {
		b.WriteByte('|')
		b.WriteString(x.Pattern)
	}
	return b.String()
}

// sameKey reports whether key builds equal keys for a and b, by comparing
// exactly the fields key reads.
func (s *shape) sameKey(a, b *extract.Extraction) bool {
	if s.sourceOnly {
		return a.URL == b.URL
	}
	if a.Extractor != b.Extractor {
		return false
	}
	if !s.extractorOnly {
		if s.site && a.Site != b.Site || !s.site && a.URL != b.URL {
			return false
		}
	}
	return (!s.predicate || a.Triple.Predicate == b.Triple.Predicate) &&
		(!s.pattern || a.Pattern == b.Pattern)
}

// Claim is one (triple, provenance) assertion — the unit the fusion methods
// consume after reducing the 3-dimensional input.
type Claim struct {
	Triple kb.Triple
	Prov   string
	// Extractor is retained for per-extractor diagnostics (Figure 18).
	Extractor string
}

// Claims converts extractions to claims under granularity g, deduplicating
// (provenance, triple) pairs: a provenance asserts a triple once. They are
// the claims of CompileExtractions(xs, g, workers), flattened by the same
// loop without building the graph. An append-only feed grows a graph through
// AppendExtractions, which carries the dedup across batches.
func Claims(xs []extract.Extraction, g Granularity) []Claim {
	return newClaimStream(g, len(xs)).Add(xs)
}

// FusedTriple is one output row: a unique triple with its predicted
// probability of truth and support counts.
type FusedTriple struct {
	Triple kb.Triple
	// Probability is the predicted truthfulness in [0,1]. When Predicted is
	// false (the provenance filters removed all evidence, §4.3.2), it is -1.
	Probability float64
	Predicted   bool
	// Provenances is the number of provenances asserting this triple (m in
	// the paper's VOTE description).
	Provenances int
	// ItemProvenances is the total number of claims on the triple's data
	// item (n).
	ItemProvenances int
	// Extractors is the number of distinct extractors asserting the triple.
	Extractors int
}

// Item returns the data item of the fused triple.
func (f FusedTriple) Item() kb.DataItem { return f.Triple.Item() }

// Result is the output of a fusion run in its exchange form: self-contained
// rows and a string-keyed accuracy map, what the file writers, the
// evaluation layer and every public Fuse call speak. The engines compute the
// native form, Posterior, and a Result is materialised from one
// (Posterior.Result) wherever a caller asks for it; it is also what
// kfio.ReadFused returns and what a caller may build by hand. It keeps no
// reference to the graphs it was fused on.
type Result struct {
	Triples []FusedTriple
	// Rounds is the number of EM rounds executed (1 for VOTE).
	Rounds int
	// ProvAccuracy is the final accuracy estimate per provenance key.
	ProvAccuracy map[string]float64
	// Unpredicted counts triples for which filtering removed all evidence.
	Unpredicted int

	// seed is the seed of the posterior this result was materialised from:
	// what warm-starts the next generation (see Seed). Nil on a read-back or
	// hand-built result, which seeds through the map.
	seed *Seed
}

// Seed returns what warm-starts a run from r: the seed of the posterior r
// was materialised from — it seeds by provenance ID where it can, and still
// carries its step engines if no run has taken them (see FuseLockstep) — or,
// for a decoded or hand-built result, a seed holding r's accuracies by key.
// Nil when there is nothing to seed from. The seed is fixed when the result
// is materialised: to edit one, pass a fresh Result{ProvAccuracy: m} rather
// than writing into a returned map.
func (r *Result) Seed() *Seed {
	switch {
	case r == nil:
		return nil
	case r.seed != nil:
		return r.seed
	case len(r.ProvAccuracy) == 0:
		return nil
	}
	return &Seed{byKey: r.ProvAccuracy}
}

// ByTriple indexes the result for lookups.
func (r *Result) ByTriple() map[kb.Triple]FusedTriple {
	m := make(map[kb.Triple]FusedTriple, len(r.Triples))
	for _, t := range r.Triples {
		m[t.Triple] = t
	}
	return m
}
