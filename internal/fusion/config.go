package fusion

import (
	"fmt"
	"math"

	"kfusion/internal/kb"
)

// Method selects the fusion algorithm.
type Method uint8

const (
	// Vote counts provenances: p(T) = m/n (baseline).
	Vote Method = iota
	// Accu is Bayesian fusion with N uniformly-distributed false values.
	Accu
	// PopAccu is Bayesian fusion with the false-value distribution
	// estimated from the data.
	PopAccu
)

// String names the method as in the paper.
func (m Method) String() string {
	switch m {
	case Vote:
		return "VOTE"
	case Accu:
		return "ACCU"
	case PopAccu:
		return "POPACCU"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Labeler reports the gold-standard label of a triple: label (true/false)
// and whether the triple is labeled at all (LCWA abstains on unknown items).
// It decouples fusion from the evaluation package.
type Labeler func(kb.Triple) (label bool, ok bool)

// Config parameterizes a fusion run. Zero value is not valid; start from a
// preset (VoteConfig, AccuConfig, PopAccuConfig, PopAccuPlusUnsupConfig,
// PopAccuPlusConfig) and adjust.
type Config struct {
	Method      Method
	Granularity Granularity

	// DefaultAccuracy is the initial provenance accuracy A (paper: 0.8).
	DefaultAccuracy float64
	// NFalse is ACCU's number of uniformly-distributed false values
	// (paper: N = 100).
	NFalse int
	// Rounds is the forced termination cap R (paper: 5).
	Rounds int
	// Epsilon stops iteration early when no provenance accuracy moves by
	// more than this between rounds. Epsilon <= 0 means 1e-4, not "never
	// stop": a caller that needs a fixed number of rounds caps Rounds.
	Epsilon float64
	// SampleL caps the number of claims any single reducer considers, both
	// per data item and per provenance (paper: 1M default, 1K works).
	SampleL int

	// FilterByCoverage enables §4.3.2's coverage filter: round one scores
	// only data items where some triple has >= 2 provenances, and later
	// rounds ignore provenances still carrying the default accuracy.
	FilterByCoverage bool
	// AccuracyThreshold θ ignores provenances whose estimated accuracy
	// falls below it (0 disables). Items that lose every provenance fall
	// back to the mean accuracy of the triple's provenances.
	AccuracyThreshold float64

	// GoldLabeler, when set, initializes provenance accuracies from the
	// gold standard (§4.3.3) instead of DefaultAccuracy.
	GoldLabeler Labeler
	// GoldSampleRate uses only this fraction of gold labels (paper sweeps
	// 10%..100%). 0 means 1.0.
	GoldSampleRate float64

	// Workers bounds the goroutines of the one-time claim-graph compile
	// (Fuse) and of the per-round stage loops (0 = GOMAXPROCS). Results
	// never depend on it; FuseReference, a sequential oracle, ignores it.
	Workers int
}

// VoteConfig returns the VOTE baseline configuration.
func VoteConfig() Config {
	return Config{Method: Vote, Rounds: 1, SampleL: 1 << 20, Epsilon: 1e-3}
}

// AccuConfig returns the paper's ACCU configuration (A=0.8, N=100, R=5).
func AccuConfig() Config {
	return Config{
		Method:          Accu,
		DefaultAccuracy: 0.8,
		NFalse:          100,
		Rounds:          5,
		Epsilon:         1e-4,
		SampleL:         1 << 20,
	}
}

// PopAccuConfig returns the paper's POPACCU configuration.
func PopAccuConfig() Config {
	c := AccuConfig()
	c.Method = PopAccu
	return c
}

// PopAccuPlusUnsupConfig returns POPACCU+unsup: POPACCU with coverage
// filtering, (Extractor, Site, Predicate, Pattern) provenances and accuracy
// filtering at θ = 0.5 — the unsupervised refined system of §4.3.4.
func PopAccuPlusUnsupConfig() Config {
	c := PopAccuConfig()
	c.FilterByCoverage = true
	c.Granularity = GranExtractorSitePredPattern
	c.AccuracyThreshold = 0.5
	return c
}

// PopAccuPlusConfig returns POPACCU+: POPACCU+unsup plus gold-standard
// accuracy initialization — the semi-supervised refined system.
func PopAccuPlusConfig(labeler Labeler) Config {
	c := PopAccuPlusUnsupConfig()
	c.GoldLabeler = labeler
	c.GoldSampleRate = 1
	return c
}

// Preset returns the paper configuration of a claim-layer method by the name
// the CLIs and the daemon use: vote, accu, popaccu or popaccu+unsup.
// (popaccu+ is not a preset: PopAccuPlusConfig needs a Labeler.)
func Preset(name string) (Config, error) {
	switch name {
	case "vote":
		return VoteConfig(), nil
	case "accu":
		return AccuConfig(), nil
	case "popaccu":
		return PopAccuConfig(), nil
	case "popaccu+unsup":
		return PopAccuPlusUnsupConfig(), nil
	}
	return Config{}, fmt.Errorf("fusion: unknown method %q (want vote, accu, popaccu or popaccu+unsup)", name)
}

// ParseGranularity maps the CLI names of the §4.3.1 provenance granularities
// — url, site, site-pred, site-pred-pattern — to their Granularity.
func ParseGranularity(name string) (Granularity, error) {
	for g, s := range shapes {
		if s.cli != "" && s.cli == name {
			return Granularity(g), nil
		}
	}
	return 0, fmt.Errorf("fusion: unknown granularity %q (want url, site, site-pred or site-pred-pattern)", name)
}

// Validate reports configuration errors. Range checks are written so that
// NaN fails them.
func (c Config) Validate() error {
	if c.Method != Vote {
		if !(c.DefaultAccuracy > 0 && c.DefaultAccuracy < 1) {
			return fmt.Errorf("fusion: DefaultAccuracy must be in (0,1), got %v", c.DefaultAccuracy)
		}
		if c.Rounds < 1 {
			return fmt.Errorf("fusion: Rounds must be >= 1, got %d", c.Rounds)
		}
	}
	if c.Method == Accu && c.NFalse < 1 {
		return fmt.Errorf("fusion: NFalse must be >= 1 for ACCU, got %d", c.NFalse)
	}
	if int(c.Granularity) >= len(shapes) {
		return fmt.Errorf("fusion: unknown granularity %v", c.Granularity)
	}
	if c.SampleL < 1 {
		return fmt.Errorf("fusion: SampleL must be >= 1, got %d", c.SampleL)
	}
	// Epsilon <= 0 means the default, so any number passes; NaN would pass
	// that check and then never stop a run early.
	if math.IsNaN(c.Epsilon) {
		return fmt.Errorf("fusion: Epsilon must be a number, got %v", c.Epsilon)
	}
	if !(c.AccuracyThreshold >= 0 && c.AccuracyThreshold < 1) {
		return fmt.Errorf("fusion: AccuracyThreshold must be in [0,1), got %v", c.AccuracyThreshold)
	}
	if !(c.GoldSampleRate >= 0 && c.GoldSampleRate <= 1) {
		return fmt.Errorf("fusion: GoldSampleRate must be in [0,1], got %v", c.GoldSampleRate)
	}
	return nil
}
