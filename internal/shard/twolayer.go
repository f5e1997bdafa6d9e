package shard

import (
	"fmt"
	"slices"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

// TwoLayer is the sharded §5.1 two-layer pipeline: K shard-local extraction
// graphs grown by Append, plus the cross-shard source and extractor tables
// and ghost-extractor sets the engine's round driver (twolayer.FuseLockstep)
// merges the M-step and corrects layer 1 through — see the package comment.
// Single-writer state: Append and Fuse must not race.
type TwoLayer struct {
	k         int
	siteLevel bool
	graphs    []*extract.Compiled
	srcs      *csr.IDTable
	exts      *csr.IDTable

	// ghosts[s][ls] lists, ascending, the global IDs of extractors that
	// processed shard s's local source ls only in other shards, kept up to
	// date by ensureGhosts; listed[s][ls] is the length of the source's local
	// extractor list they were last brought up to date with.
	ghosts [][][]int32
	listed [][]int32
	// refreshed, when set, is handed the global sources each ensureGhosts
	// call recomputed (a test hook).
	refreshed func(gs []int32)
}

// NewTwoLayer returns an empty K-shard two-layer pipeline at the given
// source level. K = 1 is the unsharded engine run through the driver's
// table path instead of its identity path (bit-identical results, pinned by
// the property tests).
func NewTwoLayer(k int, siteLevel bool) (*TwoLayer, error) {
	if err := validateK(k); err != nil {
		return nil, err
	}
	return &TwoLayer{
		k:         k,
		siteLevel: siteLevel,
		graphs:    make([]*extract.Compiled, k),
		srcs:      csr.NewIDTable(k),
		exts:      csr.NewIDTable(k),
	}, nil
}

// K reports the shard count.
func (t *TwoLayer) K() int { return t.k }

// Shard exposes shard s's compiled extraction graph (nil until the first
// Append).
func (t *TwoLayer) Shard(s int) *extract.Compiled { return t.graphs[s] }

// NumStatements reports the deduplicated (source, triple) statements across
// all shards.
func (t *TwoLayer) NumStatements() int {
	n := 0
	for _, g := range t.graphs {
		if g != nil {
			n += g.NumStatements()
		}
	}
	return n
}

// Append routes one extraction batch to its shards and compiles or appends
// each shard's graph. Statement dedup is shard-local because the triple's
// item fixes the shard.
func (t *TwoLayer) Append(xs []extract.Extraction) {
	parts := SplitExtractions(xs, t.k)
	for s := 0; s < t.k; s++ {
		if t.graphs[s] == nil {
			t.graphs[s] = extract.Compile(parts[s], t.siteLevel)
		} else {
			t.graphs[s] = t.graphs[s].Append(parts[s])
		}
		t.extendTables(s)
	}
}

func (t *TwoLayer) extendTables(s int) {
	g := t.graphs[s]
	t.srcs.Extend(s, g.NumSources(), func(i int32) string { return g.SourceKey(i) })
	t.exts.Extend(s, g.NumExtractors(), func(i int32) string { return g.ExtractorName(i) })
}

// ensureGhosts brings the per-shard ghost extractor sets up to date with the
// graphs, revising only what the Appends since the last call touched. A
// global source's ghost lists follow from its extractor union and its
// holders' local lists, and both change only through a new (source,
// extractor) pair, which grows a holder's local list or brings the source to
// a shard. So the touched sources are those with a local list longer than
// listed records, or none recorded yet; for each, the union is recomputed
// over its holders and every holder's list rewritten. The driver reads the
// lists only during its call, so a list that still fits is rewritten in
// place. From empty every source is touched, and the call is one pass that
// lays each shard's lists out in one block. With K = 1 there are no ghosts
// and the driver keeps its nil (bit-identical) path.
func (t *TwoLayer) ensureGhosts() {
	if t.k == 1 {
		return
	}
	if t.ghosts == nil {
		t.ghosts = make([][][]int32, t.k)
		t.listed = make([][]int32, t.k)
	}
	mark := make([]bool, t.srcs.N())
	var touched []int32
	for s, g := range t.graphs {
		listed := slices.Grow(t.listed[s], g.NumSources()-len(t.listed[s]))
		for ls := range g.NumSources() {
			n := int32(len(g.SourceExtractors(int32(ls))))
			if ls < len(listed) {
				if listed[ls] == n {
					continue
				}
				listed[ls] = n
			} else {
				listed = append(listed, n)
			}
			if gs := t.srcs.Global(s, ls); !mark[gs] {
				mark[gs] = true
				touched = append(touched, gs)
			}
		}
		t.listed[s] = listed
	}
	if len(touched) == 0 {
		return
	}
	if t.refreshed != nil {
		t.refreshed(touched)
	}

	// Each touched source's union, ascending, in one flat buffer: union i is
	// flat[at[i]:at[i+1]]. A local list is a subset of its source's union, so
	// a holder's new ghost list has (union size) - (local list size) entries.
	// One that fits in its old list's capacity is rewritten there; the rest,
	// a new source's included (its old list is nil), go to one block per
	// shard, sized alongside the unions.
	for s, g := range t.graphs {
		t.ghosts[s] = append(t.ghosts[s], make([][]int32, g.NumSources()-len(t.ghosts[s]))...)
	}
	var one [1]csr.Loc
	at := make([]int32, len(touched)+1)
	var flat []int32
	size := make([]int, t.k)
	for i, gs := range touched {
		lo := len(flat)
		hold := t.srcs.Holders(int(gs), &one)
		for _, h := range hold {
			for _, lx := range t.graphs[h.Shard].SourceExtractors(h.Local) {
				flat = append(flat, t.exts.Global(int(h.Shard), int(lx)))
			}
		}
		u := flat[lo:]
		slices.Sort(u)
		flat = flat[:lo+len(slices.Compact(u))]
		at[i+1] = int32(len(flat))
		for _, h := range hold {
			if n := int(at[i+1] - at[i] - t.listed[h.Shard][h.Local]); n > cap(t.ghosts[h.Shard][h.Local]) {
				size[h.Shard] += n
			}
		}
	}
	blocks := make([][]int32, t.k)
	for s, n := range size {
		blocks[s] = make([]int32, 0, n)
	}

	local := make([]bool, t.exts.N())
	for i, gs := range touched {
		u := flat[at[i]:at[i+1]]
		for _, h := range t.srcs.Holders(int(gs), &one) {
			s := int(h.Shard)
			exts := t.graphs[s].SourceExtractors(h.Local)
			ghost := t.ghosts[s][h.Local][:0]
			if n := len(u) - len(exts); n > cap(ghost) {
				lo := len(blocks[s])
				blocks[s] = blocks[s][:lo+n]
				ghost = blocks[s][lo : lo : lo+n]
			}
			for _, lx := range exts {
				local[t.exts.Global(s, int(lx))] = true
			}
			for _, gx := range u {
				if !local[gx] {
					ghost = append(ghost, gx)
				}
			}
			t.ghosts[s][h.Local] = ghost
			for _, lx := range exts {
				local[t.exts.Global(s, int(lx))] = false
			}
		}
	}
}

// Fuse runs the two-layer model across the shards: merged results (triples
// in shard-major interned order, the global source-accuracy map) plus the
// run's global State for the next generation's warm start.
func (t *TwoLayer) Fuse(cfg twolayer.Config) (*fusion.Result, *twolayer.State, error) {
	return t.FuseWarm(cfg, nil)
}

// FuseWarm is Fuse seeded from a previous sharded run's State. The State is
// indexed by this coordinator's global tables (append-stable, like the
// graph IDs they are built from); with K = 1 those coincide with the single
// graph's IDs, so unsharded States interchange.
func (t *TwoLayer) FuseWarm(cfg twolayer.Config, warm *twolayer.State) (*fusion.Result, *twolayer.State, error) {
	post, st, err := t.FusePosterior(cfg, warm)
	if err != nil {
		return nil, nil, err
	}
	return post.Result(), st, nil
}

// FusePosterior is FuseWarm returning the posterior in its native form — the
// K-graph call of the round driver — for chains that read rows only after
// their last step; post.Result() is what FuseWarm would have returned.
func (t *TwoLayer) FusePosterior(cfg twolayer.Config, warm *twolayer.State) (*fusion.Posterior, *twolayer.State, error) {
	for s, g := range t.graphs {
		if g == nil {
			return nil, nil, fmt.Errorf("shard %d: Fuse before first Append", s)
		}
	}
	t.ensureGhosts()
	return twolayer.FuseLockstep(t.graphs, &twolayer.Shards{Sources: t.srcs, Extractors: t.exts, Ghosts: t.ghosts}, cfg, warm)
}
