package shard

import (
	"fmt"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
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
// has k slices; shards untouched by the batch get nil.
func SplitExtractions(xs []extract.Extraction, k int) [][]extract.Extraction {
	out := make([][]extract.Extraction, k)
	if k == 1 {
		out[0] = xs
		return out
	}
	for _, x := range xs {
		s := Of(x.Triple.Item(), k)
		out[s] = append(out[s], x)
	}
	return out
}

// SplitClaims partitions a claim batch into k per-shard batches by the
// claimed triple's data item, preserving input order within each shard.
func SplitClaims(claims []fusion.Claim, k int) [][]fusion.Claim {
	out := make([][]fusion.Claim, k)
	if k == 1 {
		out[0] = claims
		return out
	}
	for _, c := range claims {
		s := Of(c.Triple.Item(), k)
		out[s] = append(out[s], c)
	}
	return out
}

func validateK(k int) error {
	if k < 1 {
		return fmt.Errorf("shard: K must be >= 1, got %d", k)
	}
	return nil
}
