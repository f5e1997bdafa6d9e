package genstore

import (
	"fmt"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/shard"
	"kfusion/internal/twolayer"
)

// Chain is the append chain of one fusion method — the step directly above
// the EM round driver that every deployment of the pipeline runs: kfuse
// (batch and -append, one graph or K shards), the kfserved daemon and the
// crash-recovery tests all fold a batch through this one value, so the
// bit-identity the crash sweep proves is a property of the code the daemon
// replays. Pass Apply to Open as the store's ApplyFunc.
//
// The shard count K is a parameter of the chain, not a second one: at K = 1
// the state holds one graph (State.Claim or State.Ext) fused through the
// round driver's identity path; at K > 1 it holds the K graphs in a
// shard.Fusion or shard.TwoLayer coordinator, which routes each batch by data
// item and hands the driver its cross-shard ID tables. Either way a batch is
// journaled whole and replayed through the same Apply.
//
// A Chain holds configuration only. The cross-batch state — the graphs,
// whose interning index carries the claim layer's (provenance, triple) dedup,
// or the coordinator that holds one graph per shard — lives on the State it
// describes, so one Chain serves any number of states.
type Chain struct {
	method   string
	twoLayer bool
	shards   int
	claim    fusion.Config
	tl       twolayer.Config
	warm     int
}

// ClaimChain binds a claim-layer method (vote, accu, popaccu, …) to cfg over
// shards item-partitioned graphs (1 = one graph). warmRounds is the EM round
// budget of every batch after the first — online EM seeded from the previous
// generation's posteriors; 0 runs every batch under cfg's own round cap. The
// first batch always cold-fuses under cfg.
func ClaimChain(method string, cfg fusion.Config, warmRounds, shards int) *Chain {
	return &Chain{method: method, claim: cfg, warm: warmRounds, shards: shards}
}

// TwoLayerChain binds the §5.1 two-layer model to cfg; warmRounds and shards
// as in ClaimChain.
func TwoLayerChain(cfg twolayer.Config, warmRounds, shards int) *Chain {
	return &Chain{method: "twolayer", twoLayer: true, tl: cfg, warm: warmRounds, shards: shards}
}

// Check enforces the State.Method contract: a state built by a different
// method, claim granularity, two-layer source level or shard count must not
// be grown or served by this chain, and neither must one whose two-layer
// parameters are not its graph's — vectors of another length than the graph's
// source and extractor counts, or a value no run produces
// (twolayer.State.Validate): a snapshot is outside input, and the next warm
// round would carry such a value into every probability it touches. (A
// recovered posterior needs no check here: the snapshot decoder pairs its
// columns with the graph and validates its values.) An empty state belongs
// to any chain.
func (c *Chain) Check(st *State) error {
	if st.Method != "" && st.Method != c.method {
		return fmt.Errorf("genstore: state holds method %q, chain runs %q", st.Method, c.method)
	}
	k := st.shards()
	if k > 0 && k != c.shards {
		return fmt.Errorf("genstore: state holds K=%d graphs, chain runs K=%d", k, c.shards)
	}
	if !c.twoLayer && k > 0 && st.Gran != c.claim.Granularity {
		return fmt.Errorf("genstore: state holds granularity %s, chain runs %s", st.Gran, c.claim.Granularity)
	}
	if c.twoLayer && k > 0 && st.SiteLevel != c.tl.SiteLevel {
		return fmt.Errorf("genstore: state holds site-level=%v, chain runs site-level=%v", st.SiteLevel, c.tl.SiteLevel)
	}
	// A sharded state's parameters are indexed by its coordinator's tables
	// and never come from a snapshot: the chain computed them.
	if c.twoLayer && st.TL != nil && st.ExtShards == nil {
		nSrc, nExt := 0, 0
		if st.Ext != nil {
			nSrc, nExt = st.Ext.NumSources(), st.Ext.NumExtractors()
		}
		if err := st.TL.Validate(nSrc, nExt); err != nil {
			return fmt.Errorf("genstore: state holds two-layer parameters that are not its graph's: %w", err)
		}
	}
	return nil
}

// grow folds one batch into the state's compiled graphs without fusing: the
// first batch compiles, every later one appends (Append == recompile of the
// concatenated stream, so replay is bit-identical). A claim-layer graph
// flattens its batches itself, deduplicating (provenance, triple) pairs
// against the claims it holds — built or restored, so replayed and live
// dedup agree — at K = 1 and in each of the coordinator's shards at K > 1.
func (c *Chain) grow(st *State, batch []extract.Extraction) error {
	// Replay runs before the opener can Check the recovered state, and would
	// otherwise restamp a foreign snapshot as this chain's.
	if err := c.Check(st); err != nil {
		return err
	}
	st.Method = c.method
	if c.twoLayer {
		st.SiteLevel = c.tl.SiteLevel
		switch {
		case c.shards > 1:
			if st.ExtShards == nil {
				tl, err := shard.NewTwoLayer(c.shards, c.tl.SiteLevel)
				if err != nil {
					return err
				}
				st.ExtShards = tl
			}
			st.ExtShards.Append(batch)
		case st.Ext == nil:
			st.Ext = extract.CompileWorkers(batch, c.tl.SiteLevel, c.tl.Workers)
		default:
			st.Ext = st.Ext.Append(batch)
		}
		return nil
	}
	st.Gran = c.claim.Granularity
	if c.shards > 1 {
		if st.ClaimShards == nil {
			f, err := shard.NewFusion(c.shards, st.Gran)
			if err != nil {
				return err
			}
			st.ClaimShards = f
		}
		return st.ClaimShards.Append(batch)
	}
	if st.Claim == nil {
		st.Claim = fusion.CompileExtractions(batch, st.Gran, c.claim.Workers)
		return nil
	}
	next, err := st.Claim.AppendExtractions(batch, st.Gran)
	if err != nil {
		return err
	}
	st.Claim = next
	return nil
}

// Apply grows the state by one batch and re-fuses it, warm-started from the
// state's previous posterior: the chain's ApplyFunc. It runs the engine's
// round driver directly — over the one graph, or over the coordinator's K
// (FusePosterior) — and leaves the posterior in its native form on
// st.Posterior (st.Result is cleared; State.Fused materialises it on
// request), so a chain that appends more often than it snapshots never
// builds the rows or the accuracy map of the generations in between, and
// each generation's run takes over the step engines of the one before
// (fusion.FuseLockstep). A state recovered from a snapshot holds its
// posterior too, over the recovered graph; the first Apply after it seeds
// from that.
func (c *Chain) Apply(st *State, batch []extract.Extraction) error {
	cold := st.shards() == 0
	if err := c.grow(st, batch); err != nil {
		return err
	}
	if c.twoLayer {
		cfg := c.tl
		if !cold && c.warm > 0 {
			cfg.Rounds = c.warm
		}
		var post *fusion.Posterior
		var tl *twolayer.State
		var err error
		if st.ExtShards != nil {
			post, tl, err = st.ExtShards.FusePosterior(cfg, st.TL)
		} else {
			post, tl, err = twolayer.FuseLockstep([]*extract.Compiled{st.Ext}, nil, cfg, st.TL)
		}
		if err != nil {
			return err
		}
		st.Posterior, st.Result, st.TL = post, nil, tl
		return nil
	}
	cfg := c.claim
	if !cold && c.warm > 0 {
		cfg.Rounds = c.warm
	}
	var post *fusion.Posterior
	var err error
	if st.ClaimShards != nil {
		post, err = st.ClaimShards.FusePosterior(cfg, st.Posterior.Seed())
	} else {
		post, err = fusion.FuseLockstep([]*fusion.Compiled{st.Claim}, nil, cfg, st.Posterior.Seed())
	}
	if err != nil {
		return err
	}
	st.Posterior, st.Result = post, nil
	return nil
}
