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
// itself is sharded on large inputs from csr.ShardInternMinWorkers workers on
// (per-worker shard interning with csr.MergeKeys' ordered pairwise merge; the
// one sequential loop below that, where the merge costs more than it saves).
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
	"strings"

	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// Granularity selects how an extraction's provenance key is built (§4.3.1).
// The default (zero value) is the paper's basic (Extractor, URL) provenance.
type Granularity struct {
	// SiteLevel keys Web sources at site level instead of URL level.
	SiteLevel bool
	// PerPredicate appends the predicate, evaluating source quality
	// separately per predicate.
	PerPredicate bool
	// PerPattern appends the extractor pattern.
	PerPattern bool
	// ExtractorOnly drops the Web-source component entirely: provenance =
	// (extractor, pattern) — Figure 9's "Only ext" variant.
	ExtractorOnly bool
	// SourceOnly drops the extractor component: provenance = URL —
	// Figure 9's "Only src" variant.
	SourceOnly bool
}

// Standard granularities from the paper's experiments.
var (
	// GranExtractorURL is the basic (Extractor, URL) provenance.
	GranExtractorURL = Granularity{}
	// GranExtractorSite is (Extractor, Site).
	GranExtractorSite = Granularity{SiteLevel: true}
	// GranExtractorSitePred is (Extractor, Site, Predicate).
	GranExtractorSitePred = Granularity{SiteLevel: true, PerPredicate: true}
	// GranExtractorSitePredPattern is (Extractor, Site, Predicate, Pattern)
	// — the best calibrated granularity in Figure 10.
	GranExtractorSitePredPattern = Granularity{SiteLevel: true, PerPredicate: true, PerPattern: true}
	// GranExtractorOnly is (Extractor, Pattern) — "Only ext".
	GranExtractorOnly = Granularity{ExtractorOnly: true, PerPattern: true}
	// GranSourceOnly is (URL) — "Only src".
	GranSourceOnly = Granularity{SourceOnly: true}
)

// String names the granularity as in the paper's figures.
func (g Granularity) String() string {
	switch {
	case g.ExtractorOnly:
		return "(Extractor, Pattern)"
	case g.SourceOnly:
		return "(URL)"
	default:
		parts := []string{"Extractor"}
		if g.SiteLevel {
			parts = append(parts, "Site")
		} else {
			parts = append(parts, "URL")
		}
		if g.PerPredicate {
			parts = append(parts, "Predicate")
		}
		if g.PerPattern {
			parts = append(parts, "Pattern")
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
}

// Key builds the provenance key for an extraction.
func (g Granularity) Key(x extract.Extraction) string {
	var b strings.Builder
	if g.SourceOnly {
		b.WriteString(x.URL)
		return b.String()
	}
	b.WriteString(x.Extractor)
	if !g.ExtractorOnly {
		b.WriteByte('|')
		if g.SiteLevel {
			b.WriteString(x.Site)
		} else {
			b.WriteString(x.URL)
		}
	}
	if g.PerPredicate {
		b.WriteByte('|')
		b.WriteString(string(x.Triple.Predicate))
	}
	if g.PerPattern {
		b.WriteByte('|')
		b.WriteString(x.Pattern)
	}
	return b.String()
}

// sameKey reports whether Key builds equal keys for a and b, by comparing
// exactly the fields Key reads.
func (g Granularity) sameKey(a, b *extract.Extraction) bool {
	if g.SourceOnly {
		return a.URL == b.URL
	}
	if a.Extractor != b.Extractor {
		return false
	}
	if !g.ExtractorOnly {
		if g.SiteLevel && a.Site != b.Site || !g.SiteLevel && a.URL != b.URL {
			return false
		}
	}
	return (!g.PerPredicate || a.Triple.Predicate == b.Triple.Predicate) &&
		(!g.PerPattern || a.Pattern == b.Pattern)
}

// Claim is one (triple, provenance) assertion — the unit the fusion methods
// consume after reducing the 3-dimensional input.
type Claim struct {
	Triple kb.Triple
	Prov   string
	// Conf is the extractor confidence (-1 when absent). A compiled graph
	// keeps it as a per-claim column that snapshots persist; no engine reads
	// it.
	Conf float64
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
