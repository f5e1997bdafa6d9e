package main

import (
	"math"
	"time"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/shard"
	"kfusion/internal/twolayer"
)

const streamShards = 4

// runStreamSharded is a continual feed through K=4 shard coordinators:
// set-up bulk-appends the feed's head and cold-fuses; the timed
// part feeds fixed-size chunks, each an Append then a one-round FuseWarm,
// once through shard.Fusion and once through shard.TwoLayer. It uses the
// compile layer as incremental Append where batch-cold uses bulk Compile,
// and the warm one-round fuse where sweep-reuse uses cold full fuses, so a
// gain for one use that costs the other shows.
func runStreamSharded(e *env) (*outcome, error) {
	setup := time.Now()
	cal := newCalibrator()
	sc := e.tr.scope(0)
	xs, err := loadFeed(sc, nil, e.feed, "setup.parse")
	if err != nil {
		return nil, err
	}
	sz := sizesFor(e.seconds, len(xs))
	head := sz.head
	chunk := func(i int) []extract.Extraction {
		return xs[head+i*sz.chunk : head+(i+1)*sz.chunk]
	}
	cfg := fusion.PopAccuConfig()
	warm := cfg
	warm.Rounds = 1
	tcfg := twolayer.DefaultConfig()
	twarm := tcfg
	twarm.Rounds = 1

	sc.begin("setup.prime")
	sf, err := shard.NewFusion(streamShards, cfg.Granularity)
	if err != nil {
		sc.end()
		return nil, err
	}
	if err := sf.Append(xs[:head]); err != nil {
		sc.end()
		return nil, err
	}
	resF, err := sf.Fuse(cfg)
	if err != nil {
		sc.end()
		return nil, err
	}
	st, err := shard.NewTwoLayer(streamShards, tcfg.SiteLevel)
	if err != nil {
		sc.end()
		return nil, err
	}
	st.Append(xs[:head])
	resT, stateT, err := st.Fuse(tcfg)
	sc.end()
	if err != nil {
		return nil, err
	}
	coldF, coldT := resF, resT
	setupS := time.Since(setup).Seconds()

	var checkF, checkT *fusion.Result // the sharded results after sz.checkSteps steps
	var lapsF, lapsT []lap
	region := beginTimed(e.tr)
	cal.begin()
	for i := 0; i < sz.streamChunks; i++ {
		ss := e.tr.scope(0)
		ss.begin("shard.fusion_append")
		err := sf.Append(chunk(i))
		ss.end()
		if err != nil {
			return nil, err
		}
		ss.begin("shard.fusion_fusewarm")
		resF, err = sf.FuseWarm(warm, resF)
		ss.end()
		if err != nil {
			return nil, err
		}
		lapsF = append(lapsF, cal.end())
		if i+1 == sz.checkSteps {
			checkF = resF
		}
	}
	for i := 0; i < sz.streamChunks; i++ {
		ss := e.tr.scope(0)
		ss.begin("shard.twolayer_append")
		st.Append(chunk(i))
		ss.end()
		ss.begin("shard.twolayer_fusewarm")
		resT, stateT, err = st.FuseWarm(twarm, stateT)
		ss.end()
		if err != nil {
			return nil, err
		}
		lapsT = append(lapsT, cal.end())
		if i+1 == sz.checkSteps {
			checkT = resT
		}
	}
	region.end()

	// The K=4 chain must stay within RefTol of the unsharded engines on the
	// same records: checked on the cold fuse and after the first few steps,
	// because shadowing every step would double the run.
	worst, err := shadowUnsharded(xs[:head], chunk, sz.checkSteps, [4]*fusion.Result{coldF, checkF, coldT, checkT})
	if err != nil {
		return nil, err
	}
	if worst > twolayer.RefTol {
		return nil, checkf("K=%d differs from the unsharded engine by %.3g > RefTol", streamShards, worst)
	}
	if e.tr != nil {
		e.tr.set("shard.equiv_max_abs_diff", worst)
		share := 0.0
		for s := 0; s < sf.K(); s++ {
			share = math.Max(share, float64(sf.Shard(s).NumClaims())/float64(sf.NumClaims()))
		}
		e.tr.set("shard.max_shard_share", share)
		// Routing alone, on the same chunks: the part of an Append that is
		// neither interning nor index rebuild.
		t := time.Now()
		for i := 0; i < sz.streamChunks; i++ {
			shard.SplitExtractions(chunk(i), streamShards)
		}
		e.tr.set("shard.route_busy_s", 2*time.Since(t).Seconds()) // both coordinators route every chunk
	}

	label, err := loadGold(e.gold)
	if err != nil {
		return nil, err
	}
	m := map[string]sample{}
	evaluate(sc, resF, label).into(m)
	// Records over the summed step times, as the issue defines it: a step's
	// cost grows with the state it appends to and some steps pay a rebuild
	// others do not, so the median step flips between kinds of step from run
	// to run where the total does not.
	timesF, timesT := cal.unloaded(lapsF), cal.unloaded(lapsT)
	fed := float64(sz.streamChunks * sz.chunk)
	m["fusion_claims_per_s"] = sample{Value: fed / sum(timesF), Unit: "1/s", N: len(timesF)}
	m["twolayer_claims_per_s"] = sample{Value: fed / sum(timesT), Unit: "1/s", N: len(timesT)}
	return &outcome{
		metrics:   m,
		digest:    digestStrings(digestResult(resF), digestResult(resT)),
		attempted: 2 * sz.streamChunks,
		setupS:    setupS,
		region:    region,
		cal:       cal,
		unitS:     sum(timesF) + sum(timesT),
	}, nil
}

// shadowUnsharded runs the unsharded engines over the same records — cold
// over the head, then steps warm one-round appends — and returns the
// largest posterior difference to the sharded results want holds: fusion
// cold, fusion after steps, two-layer cold, two-layer after steps.
func shadowUnsharded(head []extract.Extraction, chunk func(int) []extract.Extraction, steps int, want [4]*fusion.Result) (float64, error) {
	worst := 0.0
	cmp := func(got, want *fusion.Result) error {
		d, err := maxAbsDiff(got, want)
		worst = math.Max(worst, d)
		return err
	}

	cfg := fusion.PopAccuConfig()
	warm := cfg
	warm.Rounds = 1
	stream := fusion.NewClaimStream(cfg.Granularity)
	c, err := fusion.CompileWorkers(stream.Add(head), 0, 0)
	if err != nil {
		return 0, err
	}
	res, err := c.Fuse(cfg)
	if err != nil {
		return 0, err
	}
	if err := cmp(res, want[0]); err != nil {
		return 0, err
	}
	for i := 0; i < steps; i++ {
		if c, err = c.Append(stream.Add(chunk(i))); err != nil {
			return 0, err
		}
		if res, err = c.FuseWarm(warm, res); err != nil {
			return 0, err
		}
	}
	if err := cmp(res, want[1]); err != nil {
		return 0, err
	}

	tcfg := twolayer.DefaultConfig()
	twarm := tcfg
	twarm.Rounds = 1
	g := extract.CompileWorkers(head, tcfg.SiteLevel, 0)
	res, state, err := twolayer.FuseCompiledWarm(g, tcfg, nil)
	if err != nil {
		return 0, err
	}
	if err := cmp(res, want[2]); err != nil {
		return 0, err
	}
	for i := 0; i < steps; i++ {
		g = g.Append(chunk(i))
		if res, state, err = twolayer.FuseCompiledWarm(g, twarm, state); err != nil {
			return 0, err
		}
	}
	if err := cmp(res, want[3]); err != nil {
		return 0, err
	}
	return worst, nil
}
