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
	// processed shard s's local source ls only in other shards — rebuilt
	// when an append grew some shard's source→extractor lists. ghostSig is
	// what they were last built from: per shard its source count and its
	// (source, extractor) pair count, then the global extractor count. The
	// lists only grow, so an equal signature means equal lists.
	ghosts   [][][]int32
	ghostSig []int
	// ensureGhosts' scratch, reused across rebuilds: global source gs's
	// extractor union is unionFlat[unionStart[gs]:unionEnd[gs]].
	unionStart, unionEnd, unionFlat []int32
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

// ensureGhosts brings the per-shard ghost extractor sets up to date: for each
// global source, the union of its extractor sets across shards, minus each
// holding shard's local set. With K = 1 there are no ghosts and the driver
// keeps its nil (bit-identical) path.
func (t *TwoLayer) ensureGhosts() {
	if t.k == 1 {
		return
	}
	sig := make([]int, 0, 2*t.k+1)
	for _, g := range t.graphs {
		sig = append(sig, g.NumSources(), g.NumSourceExtractors())
	}
	sig = append(sig, t.exts.N())
	if slices.Equal(sig, t.ghostSig) {
		return
	}
	t.ghostSig = sig

	// Unions, by counting sort into one flat buffer: count the list lengths
	// per global source, prefix-sum, fill, then sort and dedup each segment.
	nSrc := t.srcs.N()
	start := slices.Grow(t.unionStart[:0], nSrc+1)[:nSrc+1]
	end := slices.Grow(t.unionEnd[:0], nSrc)[:nSrc]
	clear(start)
	for s, g := range t.graphs {
		for ls := 0; ls < g.NumSources(); ls++ {
			start[t.srcs.Global(s, ls)+1] += int32(len(g.SourceExtractors(int32(ls))))
		}
	}
	for gs := 0; gs < nSrc; gs++ {
		start[gs+1] += start[gs]
	}
	copy(end, start)
	flat := slices.Grow(t.unionFlat[:0], int(start[nSrc]))[:start[nSrc]]
	for s, g := range t.graphs {
		for ls := 0; ls < g.NumSources(); ls++ {
			gs := t.srcs.Global(s, ls)
			for _, lx := range g.SourceExtractors(int32(ls)) {
				flat[end[gs]] = t.exts.Global(s, int(lx))
				end[gs]++
			}
		}
	}
	for gs := 0; gs < nSrc; gs++ {
		u := flat[start[gs]:end[gs]]
		slices.Sort(u)
		end[gs] = start[gs] + int32(len(slices.Compact(u)))
	}
	t.unionStart, t.unionEnd, t.unionFlat = start, end, flat

	// A local list is a subset of its source's union, so shard s holds
	// exactly (sum of its sources' union sizes) - (its pair count) ghosts.
	t.ghosts = make([][][]int32, t.k)
	local := make([]bool, t.exts.N())
	for s, g := range t.graphs {
		n := -g.NumSourceExtractors()
		for ls := 0; ls < g.NumSources(); ls++ {
			gs := t.srcs.Global(s, ls)
			n += int(end[gs] - start[gs])
		}
		ghostFlat := make([]int32, 0, n)
		t.ghosts[s] = make([][]int32, g.NumSources())
		for ls := 0; ls < g.NumSources(); ls++ {
			exts := g.SourceExtractors(int32(ls))
			for _, lx := range exts {
				local[t.exts.Global(s, int(lx))] = true
			}
			gs := t.srcs.Global(s, ls)
			lo := len(ghostFlat)
			for _, gx := range flat[start[gs]:end[gs]] {
				if !local[gx] {
					ghostFlat = append(ghostFlat, gx)
				}
			}
			t.ghosts[s][ls] = ghostFlat[lo:]
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
