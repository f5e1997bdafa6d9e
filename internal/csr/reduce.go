package csr

// Deterministic block reductions.
//
// A parallel float reduction is only reproducible if the shape of its
// addition tree is fixed by the data, never by the scheduler. The helpers
// here implement the contract the compiled engines rely on: every CSR span
// is cut into fixed-size blocks (SpanBlocks), each block is summed
// left-to-right by whichever worker picks it up, and the block partials are
// folded with a combine tree shaped only by the block count (Pairwise).
// Block boundaries depend on span lengths alone, so the full reduction tree
// — and therefore every output bit — is identical for any worker count,
// including 1. The price is that the grouping differs from a single global
// left-to-right sum, which is why engines switching a reference-order pass
// onto these helpers document a small tolerance against their reference
// implementation instead of bit-equality.

// ReduceBlockSize is the fixed block length of the deterministic block
// reductions. It is a compile-time constant on purpose: the reduction tree
// (and thus the low-order float bits of every reduced sum) depends on it, so
// changing it is a documented output-perturbing event, like changing the
// summation order itself. 2048 elements keep a block's inputs within L1
// while leaving per-block bookkeeping negligible.
const ReduceBlockSize = 2048

// Block is one fixed-size chunk of a CSR span: Group is the span index it
// belongs to and [Lo, Hi) is its absolute range into the span flat array.
type Block struct {
	Group  int32
	Lo, Hi int32
}

// SpanBlocks cuts every span of a CSR start array (len nGroups+1) into
// ReduceBlockSize-element blocks, in span order, each block's range relative
// to the flat array the spans index. Block boundaries fall at multiples of
// ReduceBlockSize from each span's start, so the partition is a pure
// function of the span lengths. Empty spans produce no blocks.
func SpanBlocks(start []int32) []Block {
	// Counting and cutting run in int: a span may legitimately approach the
	// int32 offset ceiling, where int32 arithmetic on span+ReduceBlockSize
	// would wrap.
	nGroups := len(start) - 1
	total := 0
	for g := 0; g < nGroups; g++ {
		total += (int(start[g+1]) - int(start[g]) + ReduceBlockSize - 1) / ReduceBlockSize
	}
	blocks := make([]Block, 0, total)
	for g := 0; g < nGroups; g++ {
		end := int(start[g+1])
		for lo := int(start[g]); lo < end; lo += ReduceBlockSize {
			hi := lo + ReduceBlockSize
			if hi > end {
				hi = end
			}
			blocks = append(blocks, Block{Group: int32(g), Lo: int32(lo), Hi: int32(hi)})
		}
	}
	return blocks
}

// Pairwise folds partial results with a fixed binary tree shaped only by
// len(parts): the left half is folded, the right half is folded, and the two
// results are combined. With float sums this is classic pairwise summation —
// O(log n) error growth instead of left-to-right's O(n) — and because the
// tree never depends on scheduling, folding the same partials always
// produces the same bits. An empty slice returns the zero value.
//
// The same contract extends across process-shaped boundaries: the engines'
// round drivers (fusion.FuseLockstep, twolayer.FuseLockstep) merge per-shard
// EM partials (per-provenance sums, per-source evidence, per-extractor
// [4]float64 totals) by folding each entity's partials over its IDTable
// holders, in shard order, with this tree, so a sharded merge is as
// deterministic — and as shard-count-dependent in its low-order bits — as
// the in-graph block reductions are worker-count-independent. A one-graph
// fold is the identity, which is why an unsharded fuse can be the same loop.
func Pairwise[T any](parts []T, add func(a, b T) T) T {
	switch len(parts) {
	case 0:
		var zero T
		return zero
	case 1:
		return parts[0]
	case 2:
		return add(parts[0], parts[1])
	}
	h := len(parts) / 2
	return add(Pairwise(parts[:h], add), Pairwise(parts[h:], add))
}

// AddFloat64 is the scalar fold operator for Pairwise over plain float64
// partials (e.g. the cross-shard merge of per-group sums).
func AddFloat64(a, b float64) float64 { return a + b }
