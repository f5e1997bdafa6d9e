package kfusion

// Streaming surface: incremental (append-only) fusion, where the compiled
// graphs are generations of a growing extraction feed.
//
// CompiledClaims.Append / MustAppend and CompiledExtractions.Append extend a
// graph with a batch, bit-identical to recompiling the concatenated stream
// (existing interned IDs never move); CompiledClaims.FuseWarm and
// TwoLayerFuseCompiledWarm seed EM from the previous generation's
// posteriors so appended batches re-fuse in a fraction of the cold-start
// rounds. The kfserved daemon (see api_serve.go) serves the chain over HTTP.

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
	// ClaimStream incrementally flattens an append-only extraction feed
	// into claims, carrying the (provenance, triple) dedup set across
	// batches.
	ClaimStream = fusion.ClaimStream
	// TwoLayerConfig parameterizes the §5.1 two-layer model.
	TwoLayerConfig = twolayer.Config
	// TwoLayerState carries a two-layer run's converged posteriors to the
	// next generation (warm start).
	TwoLayerState = twolayer.State
)

var (
	// NewClaimStream returns an empty incremental claim flattener for a
	// granularity.
	NewClaimStream = fusion.NewClaimStream
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
// and bounded), fuse them in lockstep, and persist them one genstore state
// directory per shard. See internal/shard and `kfuse -shards`.
type (
	// ShardedFusion is the K-shard claim-fusion coordinator: Append batches,
	// then Fuse/FuseWarm in lockstep EM rounds.
	ShardedFusion = shard.Fusion
	// ShardedTwoLayer is the K-shard coordinator for the §5.1 two-layer
	// model, with the cross-shard ghost-extractor corrections.
	ShardedTwoLayer = shard.TwoLayer
	// ShardStores bundles one durable genstore per shard with lockstep
	// batch appends and crash-skew detection.
	ShardStores = shard.Stores
)

var (
	// NewShardedFusion returns an empty K-shard fusion pipeline.
	NewShardedFusion = shard.NewFusion
	// NewShardedFusionFromShards reassembles a coordinator over restored
	// per-shard graphs (e.g. from ShardStores states).
	NewShardedFusionFromShards = shard.NewFusionFromShards
	// NewShardedTwoLayer returns an empty K-shard two-layer pipeline.
	NewShardedTwoLayer = shard.NewTwoLayer
	// OpenShardStores opens (or creates) the per-shard genstore directories
	// under one state root, refusing crash-skewed layouts.
	OpenShardStores = shard.OpenStores
	// ShardStateDir names shard s's state directory under a root.
	ShardStateDir = shard.ShardDir
)
