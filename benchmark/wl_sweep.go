package main

import (
	"time"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

// runSweepReuse is the paper's own evaluation regime (§4.3, Figs. 9-12):
// many fusion configurations over one claim set. Graphs are compiled once in
// set-up; each timed sweep fuses {VOTE, ACCU, POPACCU, POPACCU+unsup} over
// the claim graphs and the default two-layer model over the extraction
// graph. EM is all of the timed work and parse/compile none of it — the
// mirror image of batch-cold.
func runSweepReuse(e *env) (*outcome, error) {
	setup := time.Now()
	cal := newCalibrator()
	sc := e.tr.scope(0)
	xs, err := loadFeed(sc, nil, e.feed, "setup.parse")
	if err != nil {
		return nil, err
	}
	configs := []fusion.Config{
		fusion.VoteConfig(), fusion.AccuConfig(), fusion.PopAccuConfig(), fusion.PopAccuPlusUnsupConfig(),
	}
	// POPACCU+unsup keys provenances finer than the rest, so it fuses its
	// own graph; the graphs are shared by every config of one granularity.
	graphs := map[fusion.Granularity]*fusion.Compiled{}
	sc.begin("setup.compile")
	for _, cfg := range configs {
		if graphs[cfg.Granularity] != nil {
			continue
		}
		c, err := fusion.CompileWorkers(fusion.Claims(xs, cfg.Granularity), 0, 0)
		if err != nil {
			sc.end()
			return nil, err
		}
		graphs[cfg.Granularity] = c
	}
	tcfg := twolayer.DefaultConfig()
	g := extract.CompileWorkers(xs, tcfg.SiteLevel, 0)
	sc.end()
	setupS := time.Since(setup).Seconds()

	sweep := func(ss *scope) ([]*fusion.Result, error) {
		out := make([]*fusion.Result, 0, len(configs)+1)
		for i, cfg := range configs {
			if i > 0 {
				cal.tick()
			}
			var res *fusion.Result
			var err error
			if ss != nil {
				res, err = fuseStaged(ss, graphs[cfg.Granularity], cfg)
			} else {
				res, err = graphs[cfg.Granularity].Fuse(cfg)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
		return out, nil
	}

	var lapsF, lapsT []lap
	var first, last []*fusion.Result
	region := beginTimed(e.tr)
	cal.begin()
	err = timeBox(e.seconds, minSweeps, func(i int) error {
		ss := e.tr.scope(0)
		res, err := sweep(ss)
		if err != nil {
			return err
		}
		lapsF = append(lapsF, cal.end())

		var tl *fusion.Result
		if ss != nil {
			tl, err = fuseTwoLayerStaged(ss, g, tcfg)
		} else {
			tl, err = twolayer.FuseCompiled(g, tcfg)
		}
		if err != nil {
			return err
		}
		lapsT = append(lapsT, cal.end())
		last = append(res, tl)
		if i == 0 {
			first = last
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	region.end()

	// The same graphs and configs must give the same bits on every sweep;
	// in a traced run the staged drivers must also match the engines' own
	// loops, which is what first is replaced with.
	if e.tr != nil {
		if first, err = sweep(nil); err != nil {
			return nil, err
		}
		tl, err := twolayer.FuseCompiled(g, tcfg)
		if err != nil {
			return nil, err
		}
		first = append(first, tl)
	}
	digests := make([]string, len(last))
	for i := range last {
		digests[i] = digestResult(last[i])
		if d := digestResult(first[i]); d != digests[i] {
			if e.tr != nil {
				return nil, checkf("config %d: the staged driver's result differs from the engine's own loop", i)
			}
			return nil, checkf("config %d: the last sweep's result differs from the first's", i)
		}
	}

	label, err := loadGold(e.gold)
	if err != nil {
		return nil, err
	}
	m := map[string]sample{}
	evaluate(sc, last[2], label).into(m) // configs[2] is POPACCU
	timesF, timesT := cal.unloaded(lapsF), cal.unloaded(lapsT)
	m["fusion_claims_per_s"] = rate(float64(len(configs)*len(xs)), timesF)
	m["twolayer_claims_per_s"] = rate(float64(len(xs)), timesT)
	return &outcome{
		metrics:   m,
		digest:    digestStrings(digests...),
		attempted: len(lapsF) * (len(configs) + 1),
		setupS:    setupS,
		region:    region,
		cal:       cal,
		unitS:     median(timesF) + median(timesT),
	}, nil
}
