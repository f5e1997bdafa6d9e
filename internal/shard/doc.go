// Package shard partitions the fusion pipeline by data item — the paper's
// own MapReduce decomposition (§4: items are independent in Stage I and
// Stage III; only the per-provenance accuracy re-estimation of Stage II
// crosses items). Each of K shards owns a self-contained slice of the
// corpus: extractions route by kb.DataItem.Hash (every extraction of one
// item lands in one shard, so triples, statements, candidate lists and the
// (provenance, triple) claim dedup are all shard-local), and each shard
// compiles, appends and fuses over its own fusion.Compiled /
// extract.Compiled handle in bounded memory.
//
// # Lockstep EM with deterministic cross-shard merges
//
// Running K independent EM loops would let per-provenance accuracies drift
// apart, so the shards advance in lockstep — and the loop that advances them
// is not in this package. Each engine has exactly one EM round driver
// (fusion.FuseLockstep, twolayer.FuseLockstep) over 1..K step engines
// (fusion.Run, twolayer.Run), both on one lockstep skeleton (csr.Bind,
// csr.Lockstep.Merge, csr.Rounds, csr.Handoff); the unsharded entry points
// call it with one graph, the coordinators here (Fusion, TwoLayer) call it
// with K. What this
// package owns is everything the driver needs to be told about a partition:
// routing (Of, SplitExtractions), the per-shard graphs grown by Append, and
// the cross-shard identity of the interned ID spaces — a
// csr.IDTable per space (provenances; sources and extractors), assigning
// global IDs in (shard, first-occurrence) order and extended on every
// Append, never rebuilt per fuse: keys intern through csr.InternTable and
// each key's holders are K words of one flat column, listed in ascending
// shard order with no sort. One driver round is then:
//
//  1. Every shard runs its item-local E-step(s) with the current GLOBAL
//     parameters.
//  2. Every shard reports M-step partials — per-provenance (sum, count),
//     per-source (num, den), per-extractor [4]float64 evidence.
//  3. The driver folds each entity's shard partials with csr.Pairwise over
//     its table holders in shard order — the same fixed-tree contract the
//     in-graph block reductions use, extended across shard boundaries —
//     applies the update formula once to the merged evidence, and
//     broadcasts the merged parameters back to every shard.
//
// Both drivers spend Config.Workers on the graphs first, through the
// skeleton's one split (csr.Bind, csr.SplitWorkers): across = min(K,
// Workers) shards step side by side and each gets Workers/across for its
// own loops, so a stage of the round is one fork-join over the shards
// (csr.ParallelEach), not one per shard per loop over a Kth of the data;
// the cross-shard merge over global IDs (csr.Lockstep.Merge) runs on the
// workers the shards took together. A claim K = 4 warm one-round step and
// its Result fork 5 times on two workers (set-up, round, merge, stage III
// and the Result's accuracy map; 21 when every shard forked for each of its
// loops); a two-layer one forks 6 times (set-up, two E-steps, the M-step
// sums, the source merge and the Result's accuracy map; 48 when every shard
// forked for each of its loops). A stage over the shards hands each shard
// to whichever worker is free (csr.ParallelEach over csr.ParallelChunks), as
// a shard's own EM loops over items, triples and provenances hand out their
// chunks; those fork where one fixed range per worker did, so the counts
// stayed 5 and 6 when they changed (and 4 for a claim step whose engines
// were recycled, before and after). Both coordinators' Append compiles the
// K slices side by side in one more fork-join, then extends the ID tables
// in shard order. Neither split, nor which worker ran what, moves a bit.
//
// The two-layer model has one genuinely cross-shard structure: a source's
// extractor set. A statement's layer-1 walk covers every extractor that
// processed its source, but a shard only sees the local ones; the remote
// ones are structural misses there (their hits route with their own items).
// TwoLayer maintains, per shard and local source, that ghost extractor set
// (global IDs, ascending) incrementally: a set changes only through a new
// (source, extractor) pair, so before a fuse it recomputes the extractor
// union of just the sources whose local lists an Append grew or added, and
// rewrites just their holders' sets. It hands the sets to the driver as
// twolayer.Shards.Ghosts; each round the driver folds the ghosts
// into a per-source ghost-miss constant (mathx.MissLogRatio over global
// rates, summed in ascending global extractor ID order) that the shard
// engine adds to each statement's prior. The same pairs owe M-step mass: an
// extractor covers every statement of every source it processed, so for
// each (shard, source) it touched only remotely it contributes the source's
// local statements as all-miss evidence — [stated, unstated, 0, 0] ghost
// partials folded into its merged extractor totals.
//
// The coordinators are also what a sharded chain persists through: a
// genstore.Chain built with K > 1 keeps its graphs in a Fusion or TwoLayer,
// journals batches whole and snapshots the K claim graphs into its one
// store; NewFusionFromShards rebuilds the claim coordinator when such a
// snapshot is decoded. This package holds no durability code of its own.
//
// # Equivalence policy
//
// K = 1 is not a second implementation pinned equal to the unsharded
// engines: it is the same driver, reached through a one-shard csr.IDTable
// instead of the identity table the unsharded entry points use. Local and
// global IDs coincide either way, the single-element Pairwise fold is the
// identity and the ghost sets are nil, so the results are bit-identical;
// the property tests compare the two table paths bitwise, and
// TestGoldenDigests holds both (and K = 4) to SHA-256 digests recorded
// before the engines' own round loops were deleted.
//
// K > 1 re-groups cross-shard float sums (a provenance's claims now add
// shard-by-shard before the final division) — exactly the perturbation the
// twolayer.RefTol policy already prices for the in-graph block reductions,
// and the same documented bound applies: float outputs (probabilities,
// accuracies, all in [0,1]) agree within RefTol across K ∈ {1,2,4,8};
// integer outputs (per-item triple sets, support counts, round counts)
// match exactly, modulo the shard-major output order (sorting by item
// restores a canonical order). Two documented K>1 divergence classes fall
// outside the bit-level argument and are policy, not accident: stage-II
// reservoir sampling runs per shard when one provenance exceeds SampleL
// locally (unreached at the default SampleL = 1<<20), and a given K fixes
// its own merge-tree shape (results are deterministic per K, compared
// across K under RefTol).
//
// For a fixed K, results remain bit-identical for any Workers value — the
// per-shard engines keep their worker-count-independence contract, and the
// merge order is a pure function of the shard tables.
//
// Global IDs follow the append history, and the two-layer ghost-miss sum
// runs in ascending global extractor ID order. So the same feed appended in
// chunks and in one Append fuses bit-identically when both number the
// extractors alike, and within RefTol when the chunking reordered them
// (FuzzShardGhosts checks both).
package shard
