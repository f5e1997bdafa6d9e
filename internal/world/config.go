// Package world generates the synthetic ground truth that stands in for the
// real world behind the paper's Web corpus: a typed ontology in Freebase
// style, entities with Zipf-skewed popularity, true facts (including
// multi-valued facts for non-functional predicates and hierarchical location
// values), confusable entity names for linkage errors, and an incomplete
// Freebase snapshot used to build the LCWA gold standard.
//
// Everything is generated from an explicit seed and is fully reproducible.
package world

import (
	"fmt"
	"math"
)

// Config controls world generation. The zero value is not usable; start from
// DefaultConfig (unit-test scale) or BenchConfig (benchmark scale) and adjust.
type Config struct {
	// Seed drives all randomness in the world.
	Seed int64

	// NumEntities is the number of non-location entities, distributed over
	// the type catalog with Zipf skew (Table 1: a few types hold most
	// entities, 30% of types have ≤100).
	NumEntities int

	// Location hierarchy sizes: continents → countries → states → cities.
	Continents        int
	CountriesPerCont  int
	StatesPerCountry  int
	CitiesPerState    int
	DuplicateCityRate float64 // fraction of cities that reuse another city's name ("Paris, Texas")

	// PredicatesPerType is the [min,max] number of predicates per type.
	PredicatesPerType [2]int

	// FunctionalFraction is the fraction of predicates that are functional
	// (Table 3 reports 28%).
	FunctionalFraction float64

	// MaxCardinality bounds the number of true values of a non-functional
	// data item (Figure 20: most items have 1-2 truths).
	MaxCardinality int

	// FactCoverage is the base probability that an (entity, predicate) pair
	// has facts in the world at all.
	FactCoverage float64

	// ConfusableFraction of entities receive a near-identical-name twin,
	// feeding the entity-linkage error simulator.
	ConfusableFraction float64

	// EntityZipfExponent skews both per-type entity counts and entity
	// popularity (popular entities appear on more pages and in Freebase).
	EntityZipfExponent float64

	// Freebase snapshot parameters; see BuildFreebase.
	Freebase FreebaseConfig
}

// FreebaseConfig controls how the incomplete trusted KB is carved out of the
// ground truth. The imperfections are deliberate: they create exactly the
// LCWA artifacts the paper's error analysis attributes 50% of false
// positives to (§4.4).
type FreebaseConfig struct {
	// HeadEntityCoverage and TailEntityCoverage are inclusion probabilities
	// for the most and least popular entities; intermediate ranks
	// interpolate linearly. "For tail entities, many facts are missing."
	HeadEntityCoverage float64
	TailEntityCoverage float64

	// ItemCoverage is the probability that a covered entity's data item is
	// present in the snapshot.
	ItemCoverage float64

	// ValueCoverage is the per-value inclusion probability for
	// non-functional items (at least one value is always kept), creating
	// the "multiple truths missing from Freebase" false positives.
	ValueCoverage float64

	// GeneralValueRate replaces a hierarchical value with one of its
	// ancestors (Freebase knows "USA" where the world says "New York City"),
	// creating specific-value false positives.
	GeneralValueRate float64

	// WrongValueRate stores an outright wrong value (the paper found 1 of
	// 20 sampled false positives was a Freebase error).
	WrongValueRate float64
}

// DefaultConfig returns a small world suitable for unit tests: a few hundred
// entities, a few thousand facts, sub-second generation.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		NumEntities:        800,
		Continents:         3,
		CountriesPerCont:   4,
		StatesPerCountry:   4,
		CitiesPerState:     5,
		DuplicateCityRate:  0.08,
		PredicatesPerType:  [2]int{4, 8},
		FunctionalFraction: 0.28,
		MaxCardinality:     6,
		FactCoverage:       0.55,
		ConfusableFraction: 0.12,
		EntityZipfExponent: 1.3,
		Freebase: FreebaseConfig{
			HeadEntityCoverage: 0.97,
			TailEntityCoverage: 0.75,
			ItemCoverage:       0.6,
			ValueCoverage:      0.7,
			GeneralValueRate:   0.12,
			WrongValueRate:     0.01,
		},
	}
}

// BenchConfig returns the world used by the paper-reproduction benchmarks:
// big enough for stable statistics (tens of thousands of facts), small enough
// to regenerate in a few seconds.
func BenchConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.NumEntities = 2200
	c.Continents = 4
	c.CountriesPerCont = 5
	c.StatesPerCountry = 5
	c.CitiesPerState = 6
	return c
}

// Validate reports configuration errors a generator run would trip over.
func (c Config) Validate() error {
	if c.NumEntities < 1 {
		return fmt.Errorf("world: NumEntities must be >= 1, got %d", c.NumEntities)
	}
	if c.Continents < 1 || c.CountriesPerCont < 1 || c.StatesPerCountry < 1 || c.CitiesPerState < 1 {
		return fmt.Errorf("world: location hierarchy sizes must all be >= 1")
	}
	if c.PredicatesPerType[0] < 1 || c.PredicatesPerType[1] < c.PredicatesPerType[0] {
		return fmt.Errorf("world: PredicatesPerType must satisfy 1 <= min <= max, got %v", c.PredicatesPerType)
	}
	if c.MaxCardinality < 1 {
		return fmt.Errorf("world: MaxCardinality must be >= 1, got %d", c.MaxCardinality)
	}
	// Range checks are written as !(in range) so that NaN, which fails
	// every comparison, is rejected too.
	if !(c.FactCoverage > 0 && c.FactCoverage <= 1) {
		return fmt.Errorf("world: FactCoverage out of (0,1]: %v", c.FactCoverage)
	}
	fb := c.Freebase
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DuplicateCityRate", c.DuplicateCityRate},
		{"FunctionalFraction", c.FunctionalFraction},
		{"ConfusableFraction", c.ConfusableFraction},
		{"Freebase.HeadEntityCoverage", fb.HeadEntityCoverage},
		{"Freebase.TailEntityCoverage", fb.TailEntityCoverage},
		{"Freebase.ItemCoverage", fb.ItemCoverage},
		{"Freebase.ValueCoverage", fb.ValueCoverage},
		{"Freebase.GeneralValueRate", fb.GeneralValueRate},
		{"Freebase.WrongValueRate", fb.WrongValueRate},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("world: %s out of [0,1]: %v", f.name, f.v)
		}
	}
	if math.IsNaN(c.EntityZipfExponent) {
		return fmt.Errorf("world: EntityZipfExponent is NaN")
	}
	return nil
}
