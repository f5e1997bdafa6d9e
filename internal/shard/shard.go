package shard

import (
	"fmt"

	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// Of routes a data item to a shard: its 64-bit FNV hash mod k. Every triple
// of the item — and therefore every extraction, claim, statement and
// candidate referencing it — belongs to shard Of(item, k).
func Of(item kb.DataItem, k int) int {
	return int(item.Hash() % uint64(k))
}

// SplitExtractions partitions an extraction batch into k per-shard batches
// by data item, preserving input order within each shard. The result always
// has k slices; shards untouched by the batch get nil. A counting pass sizes
// each part exactly: the parts are disjoint spans of one buffer, with their
// capacity clipped to their length.
func SplitExtractions(xs []extract.Extraction, k int) [][]extract.Extraction {
	out := make([][]extract.Extraction, k)
	if k == 1 {
		out[0] = xs
		return out
	}
	to := make([]int32, len(xs))
	n := make([]int, k)
	for i := range xs {
		s := Of(xs[i].Triple.Item(), k)
		to[i] = int32(s)
		n[s]++
	}
	buf := make([]extract.Extraction, len(xs))
	lo := 0
	for s, c := range n {
		if c > 0 {
			out[s] = buf[lo : lo : lo+c]
			lo += c
		}
	}
	for i := range xs {
		out[to[i]] = append(out[to[i]], xs[i])
	}
	return out
}

func validateK(k int) error {
	if k < 1 {
		return fmt.Errorf("shard: K must be >= 1, got %d", k)
	}
	return nil
}
