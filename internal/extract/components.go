// Package extract simulates the paper's 12 information extractors (TXT1-4,
// DOM1-5, TBL1-2, ANO). Extractors parse the surface forms of the synthetic
// Web corpus and emit (triple, provenance) extractions, injecting the three
// error classes the paper's §3.2.1 sampling found: triple-identification
// errors (44%), entity-linkage errors (44%) and predicate-linkage errors
// (20%), on top of the sources' own factual errors (4%).
//
// Two design points matter for reproducing the paper's phenomena:
//
//   - Entity-linkage and schema-mapping errors are DETERMINISTIC per surface
//     form and per component. Extractors share linkage components, so the
//     same wrong triple is extracted by many extractors from many pages —
//     the correlated errors behind Figures 6, 18 and 19.
//   - TXT and DOM extractors only fire when they know a pattern for the
//     (template, attribute) combination, and a small fraction of patterns
//     are systematically broken ("toxic"), producing the per-pattern quality
//     spread that makes pattern-granularity provenances pay off (Figure 10).
//
// The package also compiles what the extractors emit: Compiled is the
// interned (source × extractor × triple) graph the two-layer model runs over,
// and one generation of an append-only feed (append.go). Its interning loop
// runs on the claim graph's substrate — csr.InternTable for sources,
// extractors, triples and items, a csr.PairTable keyed by the packed (source
// ID, triple ID) word for statements, last-seen caches for the source and
// extractor of consecutive extractions — and keeps the batch's extractor-list
// additions as chains in flat arrays, so interning allocates per growth
// step, never per row.
package extract

import (
	"hash/fnv"

	"kfusion/internal/kb"
	"kfusion/internal/randx"
	"kfusion/internal/world"
)

// ErrorKind attributes an extraction's dominant error, for the mechanical
// error analysis of Figure 17. It is hidden from the fusion layer.
type ErrorKind uint8

const (
	// ErrNone marks a faithful extraction of what the page said.
	ErrNone ErrorKind = iota
	// ErrTripleID marks a triple-identification error (wrong span/row).
	ErrTripleID
	// ErrEntityLink marks an entity-linkage error (wrong entity ID).
	ErrEntityLink
	// ErrPredicateLink marks a predicate-linkage error (wrong predicate).
	ErrPredicateLink
	// ErrSource marks a faithful extraction of a source's wrong statement.
	ErrSource
)

// String names the error kind as in the paper's analysis.
func (k ErrorKind) String() string {
	switch k {
	case ErrNone:
		return "none"
	case ErrTripleID:
		return "triple-identification"
	case ErrEntityLink:
		return "entity-linkage"
	case ErrPredicateLink:
		return "predicate-linkage"
	case ErrSource:
		return "source"
	default:
		return "unknown"
	}
}

// Extraction is one extracted (triple, provenance) pair — a cell of the
// paper's three-dimensional input.
type Extraction struct {
	Triple    kb.Triple
	Extractor string
	// Pattern identifies the extraction pattern used, or "" for extractors
	// without patterns (Table 2's "No pat." rows).
	Pattern string
	URL     string
	Site    string
	// Confidence is the extractor's self-reported confidence in [0,1], or
	// -1 for extractors that provide none (DOM5, TBL2 in Table 2).
	Confidence float64
	// Error attributes the extraction's dominant error (simulator ground
	// truth; not visible to fusion).
	Error ErrorKind
}

// HasConfidence reports whether the extractor attached a confidence.
func (e Extraction) HasConfidence() bool { return e.Confidence >= 0 }

// hashProb maps the concatenation of parts to a deterministic pseudo-random
// value in [0,1). It is the mechanism behind systematic (repeatable)
// component errors.
func hashProb(parts ...string) float64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	const den = 1 << 53
	return float64(h.Sum64()>>11) / float64(den)
}

// hashPick deterministically picks an index in [0,n) from parts.
func hashPick(n int, parts ...string) int {
	if n <= 0 {
		return 0
	}
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{1})
	}
	return int(h.Sum64() % uint64(n))
}

// Linker is an entity-linkage component. Several extractors share one
// linker, so its mistakes are common mistakes. A linker's behaviour is a
// deterministic function of the surface name: genuinely ambiguous names
// (several entities share them) resolve by the linker's fixed policy, and a
// per-name fuzziness mislinks some unique names to a confusable twin.
type Linker struct {
	ID string
	// ErrRate is the fraction of names the linker systematically mislinks
	// when a confusable twin exists.
	ErrRate float64

	w *world.World
	// ambiguous holds the fixed-policy pick for every surface name several
	// entities share, resolved once when the linker is built.
	ambiguous map[string]kb.EntityID
}

// NewLinker builds a linker over the world's entity names.
func NewLinker(id string, errRate float64, w *world.World) *Linker {
	byName := make(map[string][]kb.EntityID)
	for _, eid := range w.Ont.Entities() {
		name := w.Ont.Entity(eid).Name
		byName[name] = append(byName[name], eid)
	}
	l := &Linker{ID: id, ErrRate: errRate, w: w, ambiguous: make(map[string]kb.EntityID)}
	for _, eid := range w.Ont.Entities() {
		name := w.Ont.Entity(eid).Name
		if cands := byName[name]; len(cands) > 1 && cands[0] == eid {
			l.ambiguous[name] = l.pick(name, cands)
		}
	}
	return l
}

// pick is the linker's fixed policy for an ambiguous surface form: the most
// popular candidate, tie-broken by a hash of the linker ID. Pages meaning a
// less popular namesake get mislinked.
func (l *Linker) pick(name string, cands []kb.EntityID) kb.EntityID {
	best := cands[0]
	for _, c := range cands[1:] {
		if l.w.Popularity(c) > l.w.Popularity(best) {
			best = c
		}
	}
	if hashProb(l.ID, "ambig", name) < 0.15 {
		// A slice of ambiguous names resolve by hash instead — linkers
		// differ on which namesake they prefer.
		best = cands[hashPick(len(cands), l.ID, name)]
	}
	return best
}

// Resolve maps a surface name to an entity ID. intended is the entity the
// page meant; a real linker does not know it, and the simulation only uses
// it to keep the returned mistakes well-formed (a plausible wrong entity
// rather than a random ID). The second result reports whether the resolution
// is a linkage error.
func (l *Linker) Resolve(name string, intended kb.EntityID) (kb.EntityID, bool) {
	if best, ok := l.ambiguous[name]; ok {
		return best, best != intended
	}
	// Unique (or unknown) name: systematic per-name fuzziness.
	if hashProb(l.ID, "fuzz", name) < l.ErrRate {
		// Deterministic confusable choice for this (linker, name).
		twinSrc := randx.New(int64(hashPick(1<<31, l.ID, "twin", name)))
		if twin, ok := l.w.Confusable(twinSrc, intended); ok {
			return twin, true
		}
	}
	return intended, false
}

// SchemaMapper is a predicate-linkage component: it maps surface attribute
// labels to predicate IDs. Mistakes are deterministic per (mapper, label,
// subject type): the same column header is mapped to the same wrong sibling
// predicate everywhere — the "book author as book editor" error class.
type SchemaMapper struct {
	ID      string
	ErrRate float64
	w       *world.World
}

// NewSchemaMapper builds a mapper.
func NewSchemaMapper(id string, errRate float64, w *world.World) *SchemaMapper {
	return &SchemaMapper{ID: id, ErrRate: errRate, w: w}
}

// Map resolves an attribute label to a predicate, given the intended
// predicate (the simulation contract mirrors Linker.Resolve). The second
// result reports whether the mapping is a predicate-linkage error.
func (m *SchemaMapper) Map(intended kb.PredicateID) (kb.PredicateID, bool) {
	if hashProb(m.ID, string(intended)) >= m.ErrRate {
		return intended, false
	}
	sibSrc := randx.New(int64(hashPick(1<<31, m.ID, "sib", string(intended))))
	if sib, ok := m.w.SiblingPredicate(sibSrc, intended); ok {
		return sib, true
	}
	return intended, false
}
