package shard

import (
	"fmt"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
)

// Fusion is the sharded claim-fusion pipeline: K shard-local compiled claim
// graphs grown by AppendExtractions, plus the cross-shard provenance table
// the engine's round driver (fusion.FuseLockstep) merges stage II through —
// see the package comment. Single-writer state: Append must not race with
// Append or Fuse.
type Fusion struct {
	k      int
	gran   fusion.Granularity
	graphs []*fusion.Compiled
	provs  *csr.IDTable
}

// NewFusion returns an empty K-shard fusion pipeline flattening extractions
// under gran. K = 1 is the unsharded streaming pipeline run through the
// driver's table path instead of its identity path (bit-identical results,
// pinned by the property tests).
func NewFusion(k int, gran fusion.Granularity) (*Fusion, error) {
	if err := validateK(k); err != nil {
		return nil, err
	}
	return &Fusion{
		k:      k,
		gran:   gran,
		graphs: make([]*fusion.Compiled, k),
		provs:  csr.NewIDTable(k),
	}, nil
}

// NewFusionFromShards reassembles a coordinator over restored per-shard
// graphs (a decoded genstore snapshot): graphs[i] must be the graph shard
// i's feed slice compiled to — every item it holds hashing to shard i under
// len(graphs) — as produced by a prior Fusion with the same K and
// granularity. Each shard's graph rebuilds its cross-batch dedup from its
// claims on the next Append, so subsequent Appends continue the feed exactly.
func NewFusionFromShards(graphs []*fusion.Compiled, gran fusion.Granularity) (*Fusion, error) {
	f, err := NewFusion(len(graphs), gran)
	if err != nil {
		return nil, err
	}
	for s, g := range graphs {
		f.graphs[s] = g
		f.extendProvs(s)
	}
	return f, nil
}

// K reports the shard count.
func (f *Fusion) K() int { return f.k }

// NumClaims reports the deduplicated claims across all shards.
func (f *Fusion) NumClaims() int {
	n := 0
	for _, g := range f.graphs {
		if g != nil {
			n += g.NumClaims()
		}
	}
	return n
}

// NumProvenances reports the global (cross-shard) provenance count.
func (f *Fusion) NumProvenances() int { return f.provs.N() }

// Shard exposes shard s's compiled graph (nil until the first Append) —
// the handle per-shard persistence and memory accounting work against.
func (f *Fusion) Shard(s int) *fusion.Compiled { return f.graphs[s] }

// Append routes one extraction batch to its shards and compiles or appends
// each slice onto the shard's graph (the (provenance, triple) dedup is
// shard-local because the triple's item fixes the shard). A shard receiving
// nothing still moves to its next generation (an empty append is O(1)), so
// every shard's generation counts the batches.
//
// The K slices compile side by side, one fork-join over the shards
// (csr.SplitWorkers over K and GOMAXPROCS); the provenance table is then
// extended in shard order, so every global ID is the one a shard-by-shard
// append assigns. An error names the lowest failing shard and leaves every
// graph and the table as they were.
func (f *Fusion) Append(xs []extract.Extraction) error {
	parts := SplitExtractions(xs, f.k)
	next := make([]*fusion.Compiled, f.k)
	errs := make([]error, f.k)
	across, _ := csr.SplitWorkers(f.k, 0)
	csr.ParallelEach(f.k, across, func(s int) {
		if g := f.graphs[s]; g == nil {
			next[s] = fusion.CompileExtractions(parts[s], f.gran, 0)
		} else {
			next[s], errs[s] = g.AppendExtractions(parts[s], f.gran)
		}
	})
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: append: %w", s, err)
		}
	}
	f.graphs = next
	for s := range f.graphs {
		f.extendProvs(s)
	}
	return nil
}

func (f *Fusion) extendProvs(s int) {
	g := f.graphs[s]
	f.provs.Extend(s, g.NumProvenances(), func(p int32) string { return g.ProvKey(int(p)) })
}

// Fuse runs one fusion configuration across the shards and merges the
// results: fused triples in shard-major compiled order, the global
// provenance-accuracy map, and Rounds from the lockstep loop.
func (f *Fusion) Fuse(cfg fusion.Config) (*fusion.Result, error) {
	return f.FuseWarm(cfg, nil)
}

// FuseWarm is Fuse seeded from a previous sharded result — provenances in
// prev.ProvAccuracy start there (and count as evaluated), exactly like the
// unsharded FuseWarm. Keys are granularity strings, so a result from any
// shard count seeds any other; a result this coordinator returned earlier
// seeds by global ID through the table it kept extending, without hashing a
// key, and hands this run the K step engines that produced it (see
// fusion.FuseLockstep), to the same bits.
func (f *Fusion) FuseWarm(cfg fusion.Config, prev *fusion.Result) (*fusion.Result, error) {
	return materialised(f.FusePosterior(cfg, prev.Seed()))
}

// FusePosterior is FuseWarm without the exchange form on either side: the
// K-graph call of the round driver, seeded from the previous generation's
// Posterior.Seed() (nil = cold) and returning the posterior in its native
// form. A chain that fuses after every Append and reads rows only at the end
// — genstore.Chain at K > 1 — keeps the posterior per step and materialises
// once; post.Result() is bit for bit what FuseWarm would have returned.
func (f *Fusion) FusePosterior(cfg fusion.Config, prev *fusion.Seed) (*fusion.Posterior, error) {
	return fusion.FuseLockstep(f.graphs, f.provs, cfg, prev)
}

// materialised turns the round driver's native posterior into the exchange
// form the coordinators' callers take.
func materialised(post *fusion.Posterior, err error) (*fusion.Result, error) {
	if err != nil {
		return nil, err
	}
	return post.Result(), nil
}
