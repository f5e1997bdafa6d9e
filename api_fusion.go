package kfusion

// Fusion surface: the paper's batch fusion methods over compiled claim
// graphs, with their provenance granularities.

import (
	"kfusion/internal/fusion"
	"kfusion/internal/shard"
)

// Fusion types.
type (
	// Claim is one (triple, provenance) assertion.
	Claim = fusion.Claim
	// CompiledClaims is a compiled, reusable claim graph: Compile once, then
	// Fuse any number of configurations over it.
	CompiledClaims = fusion.Compiled
	// FuseConfig parameterizes a fusion run.
	FuseConfig = fusion.Config
	// Granularity selects the provenance key shape.
	Granularity = fusion.Granularity
	// FusedTriple is one fused output row.
	FusedTriple = fusion.FusedTriple
	// FusionResult is a fusion run's output.
	FusionResult = fusion.Result
	// Labeler reports gold labels to semi-supervised fusion.
	Labeler = fusion.Labeler
)

// Fusion presets and entry points, named as in the paper.
var (
	// VOTE is the voting baseline.
	VOTE = fusion.VoteConfig
	// ACCU is Bayesian fusion with uniform false values (A=0.8, N=100).
	ACCU = fusion.AccuConfig
	// POPACCU estimates the false-value distribution from the data.
	POPACCU = fusion.PopAccuConfig
	// POPACCUPlusUnsup is POPACCU with the unsupervised refinements of
	// §4.3 (coverage filter, fine granularity, accuracy filter).
	POPACCUPlusUnsup = fusion.PopAccuPlusUnsupConfig
	// POPACCUPlus adds gold-standard accuracy initialization.
	POPACCUPlus = fusion.PopAccuPlusConfig
	// ClaimsFromExtractions flattens extractions into claims under a
	// provenance granularity.
	ClaimsFromExtractions = fusion.Claims
	// Fuse runs a fusion configuration over claims (compile-then-fuse).
	Fuse = fusion.Fuse
	// Compile interns claims into a reusable CompiledClaims graph so one
	// compilation serves many fusion configurations.
	Compile = fusion.Compile
	// CompileWorkers is Compile with explicit parallelism bounds.
	CompileWorkers = fusion.CompileWorkers
	// MustCompile is Compile for callers without error plumbing.
	MustCompile = fusion.MustCompile
)

// Sharded fusion: the paper's own MapReduce decomposition (§4) — partition
// the corpus by data item into K self-contained shards and fuse them in
// lockstep EM rounds with deterministic cross-shard merges. K=1 is
// bit-identical to the unsharded engine; K>1 agrees within the documented
// RefTol. See internal/shard for the merge contract.
var (
	// ShardOf reports which of k shards a data item routes to.
	ShardOf = shard.Of
	// SplitExtractionsSharded partitions an extraction set by data item.
	SplitExtractionsSharded = shard.SplitExtractions
)

// Provenance granularities from the paper's experiments.
var (
	// GranExtractorURL is the basic (Extractor, URL) provenance.
	GranExtractorURL = fusion.GranExtractorURL
	// GranExtractorSite keys sources at site level.
	GranExtractorSite = fusion.GranExtractorSite
	// GranExtractorSitePred adds the predicate.
	GranExtractorSitePred = fusion.GranExtractorSitePred
	// GranExtractorSitePredPattern adds the extraction pattern — the best
	// calibrated granularity in the paper.
	GranExtractorSitePredPattern = fusion.GranExtractorSitePredPattern
)
