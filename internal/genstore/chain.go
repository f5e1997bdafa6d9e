package genstore

import (
	"fmt"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

// Chain is the append chain of one fusion method — the step directly above
// the EM round driver that every deployment of the pipeline runs: kfuse
// (batch and -append), the kfserved daemon and the crash-recovery tests all
// fold a batch through this one value, so the bit-identity the crash sweep
// proves is a property of the code the daemon replays. Pass Apply (or Grow) to Open as the store's ApplyFunc.
//
// A Chain holds configuration only. The one piece of cross-batch state, the
// claim layer's (provenance, triple) dedup stream, lives on the State it
// describes, so one Chain serves any number of states — the K per-shard
// states of a sharded store included.
type Chain struct {
	method   string
	twoLayer bool
	claim    fusion.Config
	tl       twolayer.Config
	warm     int
}

// ClaimChain binds a claim-layer method (vote, accu, popaccu, …) to cfg.
// warmRounds is the EM round budget of every batch after the first — online
// EM seeded from the previous generation's posteriors; 0 runs every batch
// under cfg's own round cap. The first batch always cold-fuses under cfg.
func ClaimChain(method string, cfg fusion.Config, warmRounds int) *Chain {
	return &Chain{method: method, claim: cfg, warm: warmRounds}
}

// TwoLayerChain binds the §5.1 two-layer model to cfg; warmRounds as in
// ClaimChain.
func TwoLayerChain(cfg twolayer.Config, warmRounds int) *Chain {
	return &Chain{method: "twolayer", twoLayer: true, tl: cfg, warm: warmRounds}
}

// Check enforces the State.Method contract: a state built by a different
// method, claim granularity or two-layer source level must not be grown or
// served by this chain, and neither must one whose two-layer parameters are
// not its graph's — vectors of another length than the graph's source and
// extractor counts, or a value no run produces (twolayer.State.Validate): a
// snapshot is outside input, and the next warm round would carry such a
// value into every probability it touches. The same goes for the fused
// result of a state that holds it only in the exchange form — one recovered
// from a snapshot, which the next Apply seeds from by key without pairing it
// with the graph: a probability that is neither -1 nor in [0,1], a Predicted
// flag that disagrees with it, or an accuracy outside [0,1] is refused
// (fusion.Result.Validate; one scan, skipped once the state holds a
// posterior the chain computed). An empty state belongs to any chain.
func (c *Chain) Check(st *State) error {
	if st.Method != "" && st.Method != c.method {
		return fmt.Errorf("genstore: state holds method %q, chain runs %q", st.Method, c.method)
	}
	if !c.twoLayer && st.Claim != nil && st.Gran != c.claim.Granularity {
		return fmt.Errorf("genstore: state holds granularity %s, chain runs %s", st.Gran, c.claim.Granularity)
	}
	if c.twoLayer && st.Ext != nil && st.SiteLevel != c.tl.SiteLevel {
		return fmt.Errorf("genstore: state holds site-level=%v, chain runs site-level=%v", st.SiteLevel, c.tl.SiteLevel)
	}
	if c.twoLayer && st.TL != nil {
		nSrc, nExt := 0, 0
		if st.Ext != nil {
			nSrc, nExt = st.Ext.NumSources(), st.Ext.NumExtractors()
		}
		if err := st.TL.Validate(nSrc, nExt); err != nil {
			return fmt.Errorf("genstore: state holds two-layer parameters that are not its graph's: %w", err)
		}
	}
	if st.Posterior == nil && st.Result != nil {
		if err := st.Result.Validate(); err != nil {
			return fmt.Errorf("genstore: state holds a result that is not its graph's: %w", err)
		}
	}
	return nil
}

// Grow folds one batch into the state's compiled graph without fusing: the
// first batch compiles, every later one appends (Append == recompile of the
// concatenated stream, so replay is bit-identical). Claim-layer batches are
// flattened through the state's dedup stream, created on first use and
// seeded from a restored graph so replayed and live dedup agree. Grow alone
// is the ApplyFunc of a sharded store, whose fusion runs across shards.
func (c *Chain) Grow(st *State, batch []extract.Extraction) error {
	// Replay runs before the opener can Check the recovered state, and would
	// otherwise restamp a foreign snapshot as this chain's.
	if err := c.Check(st); err != nil {
		return err
	}
	st.Method = c.method
	if c.twoLayer {
		st.SiteLevel = c.tl.SiteLevel
		if st.Ext == nil {
			st.Ext = extract.CompileWorkers(batch, c.tl.SiteLevel, c.tl.Workers)
		} else {
			st.Ext = st.Ext.Append(batch)
		}
		return nil
	}
	st.Gran = c.claim.Granularity
	if st.stream == nil {
		if st.Claim != nil {
			st.stream = fusion.SeedClaimStream(st.Gran, st.Claim)
		} else {
			st.stream = fusion.NewClaimStream(st.Gran)
		}
	}
	claims := st.stream.Add(batch)
	var next *fusion.Compiled
	var err error
	if st.Claim == nil {
		next, err = fusion.CompileWorkers(claims, c.claim.Workers, 0)
	} else {
		next, err = st.Claim.Append(claims)
	}
	if err != nil {
		return err
	}
	st.Claim = next
	return nil
}

// Apply is Grow plus the re-fuse, warm-started from the state's previous
// posterior: the unsharded chain's ApplyFunc. It runs the engine's round
// driver directly and leaves the posterior in its native form on
// st.Posterior (st.Result is cleared; State.Fused materialises it on
// request), so a chain that appends more often than it snapshots never
// builds the rows or the accuracy map of the generations in between, and
// each generation's run takes over the step engines of the one before
// (fusion.FuseLockstep). A state recovered from a snapshot holds only the
// exchange form; the first Apply after it seeds by key from that.
func (c *Chain) Apply(st *State, batch []extract.Extraction) error {
	cold := st.Claim == nil && st.Ext == nil
	if err := c.Grow(st, batch); err != nil {
		return err
	}
	if c.twoLayer {
		cfg := c.tl
		if !cold && c.warm > 0 {
			cfg.Rounds = c.warm
		}
		post, tl, err := twolayer.FuseLockstep([]*extract.Compiled{st.Ext}, nil, cfg, st.TL)
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
	seed := st.Posterior.Seed()
	if seed == nil {
		seed = st.Result.Seed()
	}
	post, err := fusion.FuseLockstep([]*fusion.Compiled{st.Claim}, nil, cfg, seed)
	if err != nil {
		return err
	}
	st.Posterior, st.Result = post, nil
	return nil
}

// Adopt gives a state that holds its posterior only in exchange form — one
// recovered from a snapshot with nothing journaled after it — the native
// form as well, for a holder that reads rows through st.Posterior (the
// daemon's views). The result is checked against the state's graph row by
// row and key by key (fusion.PosteriorOf); a result that does not belong to
// the graph is refused like a foreign method is by Check. A state that
// already holds the native form, or nothing fused, is left as it is. Adopt
// runs Check first, so a caller that adopts without checking still cannot
// take on a foreign state.
func (c *Chain) Adopt(st *State) error {
	if err := c.Check(st); err != nil {
		return err
	}
	if st.Posterior != nil || st.Result == nil {
		return nil
	}
	var post *fusion.Posterior
	var err error
	switch {
	case c.twoLayer && st.Ext != nil:
		post, err = fusion.PosteriorOf(st.Result, st.Ext.SourceKeys(), st.Ext)
	case !c.twoLayer && st.Claim != nil:
		post, err = fusion.PosteriorOf(st.Result, st.Claim.ProvKeys(), st.Claim)
	default:
		err = fmt.Errorf("no %s graph", c.method)
	}
	if err != nil {
		return fmt.Errorf("genstore: state holds a result that is not its graph's: %w", err)
	}
	st.Posterior = post
	return nil
}
