package kfusion

// Streaming surface: incremental (append-only) fusion, where the compiled
// graphs are generations of a growing extraction feed.
//
// CompiledClaims.Append / MustAppend / AppendExtractions and
// CompiledExtractions.Append extend a graph with a batch, bit-identical to
// recompiling the concatenated stream (existing interned IDs never move);
// CompiledClaims.FuseWarm and TwoLayerFuseCompiledWarm seed EM from the
// previous generation's posteriors so appended batches re-fuse in a fraction
// of the cold-start rounds. The kfserved daemon (see api_serve.go) serves
// the chain over HTTP.

import (
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/shard"
	"kfusion/internal/twolayer"
)

type (
	// CompiledExtractions is a compiled extraction graph (the §5.1 two-layer
	// model's input): Compile once, Fuse any number of configurations,
	// Append batches to grow it across generations.
	CompiledExtractions = extract.Compiled
	// TwoLayerConfig parameterizes the §5.1 two-layer model.
	TwoLayerConfig = twolayer.Config
	// TwoLayerState carries a two-layer run's converged posteriors to the
	// next generation (warm start).
	TwoLayerState = twolayer.State
)

var (
	// CompileClaimFeed flattens an extraction feed into claims under a
	// granularity and compiles them into a CompiledClaims graph;
	// CompiledClaims.AppendExtractions grows it batch by batch, carrying the
	// (provenance, triple) dedup in the graph's own intern tables.
	CompileClaimFeed = fusion.CompileExtractions
	// CompileExtractions interns an extraction set into a reusable
	// CompiledExtractions graph (siteLevel keys sources at site level).
	CompileExtractions = extract.Compile
	// TwoLayerDefaultConfig returns the two-layer model's experiment
	// configuration.
	TwoLayerDefaultConfig = twolayer.DefaultConfig
	// TwoLayerFuse runs the §5.1 two-layer model over raw extractions.
	TwoLayerFuse = twolayer.Fuse
	// TwoLayerFuseCompiled runs the two-layer model over a compiled
	// extraction graph.
	TwoLayerFuseCompiled = twolayer.FuseCompiled
	// TwoLayerFuseCompiledWarm is TwoLayerFuseCompiled seeded from a
	// previous generation's TwoLayerState.
	TwoLayerFuseCompiledWarm = twolayer.FuseCompiledWarm
)

// Sharded streaming surface: grow K item-partitioned shards by appending
// extraction batches (each shard's graph and dedup set stay self-contained
// and bounded) and fuse them in lockstep. Durably, K is a parameter of the
// one append chain: `kfuse -shards K -state DIR` keeps the K graphs in one
// genstore state directory. See internal/shard and internal/genstore.
type (
	// ShardedFusion is the K-shard claim-fusion coordinator: Append batches,
	// then Fuse/FuseWarm in lockstep EM rounds.
	ShardedFusion = shard.Fusion
	// ShardedTwoLayer is the K-shard coordinator for the §5.1 two-layer
	// model, with the cross-shard ghost-extractor corrections.
	ShardedTwoLayer = shard.TwoLayer
)

var (
	// NewShardedFusion returns an empty K-shard fusion pipeline.
	NewShardedFusion = shard.NewFusion
	// NewShardedTwoLayer returns an empty K-shard two-layer pipeline.
	NewShardedTwoLayer = shard.NewTwoLayer
)
