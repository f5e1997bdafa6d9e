package main

import (
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/twolayer"
)

// The K=1 stage drivers run the engines' public step APIs (fusion.Run,
// twolayer.Run) in the order internal/shard's lockstep coordinators do, with
// a span around every step. They exist so the traced run can attribute EM
// time to run set-up, the stages and result materialisation without spans
// inside the engines; the caller checks their result digest against
// Compiled.Fuse / FuseCompiled, which they must match bit for bit.

// fuseStaged is Compiled.Fuse (cold, no gold labeler) as a one-shard
// lockstep run.
func fuseStaged(sc *scope, c *fusion.Compiled, cfg fusion.Config) (*fusion.Result, error) {
	sc.begin("fusion.run_setup")
	run, err := c.NewRun(cfg)
	if err != nil {
		sc.end()
		return nil, err
	}
	n := run.NumProvenances()
	acc := make([]float64, n)
	for p := range acc {
		acc[p] = cfg.DefaultAccuracy
	}
	sums := make([]float64, n)
	cnts := make([]int32, n)
	sc.end()

	rounds := 0
	if cfg.Method == fusion.Vote {
		sc.begin("fusion.stage1")
		run.StageI(0)
		sc.end()
		rounds = 1
	}
	for cfg.Method != fusion.Vote && rounds < cfg.Rounds {
		sc.begin("fusion.stage1")
		run.StageI(rounds)
		sc.end()

		sc.begin("fusion.stage2")
		run.ProvPartials(rounds, sums, cnts)
		maxDelta := 0.0
		for p := range acc {
			if cnts[p] == 0 {
				continue // scored nothing this round: keeps its accuracy
			}
			a := sums[p] / float64(cnts[p])
			if d := a - acc[p]; d > maxDelta {
				maxDelta = d
			} else if -d > maxDelta {
				maxDelta = -d
			}
			acc[p] = a
			run.SetProvAccuracy(int32(p), a)
		}
		sc.end()
		rounds++
		if maxDelta < run.Epsilon() {
			break
		}
	}
	sc.add("fusion.rounds", float64(rounds))

	sc.begin("fusion.finish")
	res := run.Finish(rounds)
	sc.end()
	return res, nil
}

// fuseTwoLayerStaged is twolayer.FuseCompiled (cold) as a one-shard lockstep
// run: E-steps, merged M-step, broadcast, and the trailing E-steps.
func fuseTwoLayerStaged(sc *scope, g *extract.Compiled, cfg twolayer.Config) (*fusion.Result, error) {
	sc.begin("twolayer.run_setup")
	run, err := twolayer.NewRun(g, cfg)
	if err != nil {
		sc.end()
		return nil, err
	}
	nS, nX := run.NumSources(), run.NumExtractors()
	srcAcc := make([]float64, nS)
	recall := make([]float64, nX)
	falsePos := make([]float64, nX)
	for s := range srcAcc {
		srcAcc[s] = cfg.InitSourceAccuracy
	}
	for x := range recall {
		recall[x], falsePos[x] = cfg.InitRecall, cfg.InitFalsePos
	}
	broadcast := func() {
		for s, a := range srcAcc {
			run.SetSourceAccuracy(int32(s), a)
		}
		for x := range recall {
			run.SetExtractorRates(int32(x), recall[x], falsePos[x])
		}
	}
	broadcast()
	num := make([]float64, nS)
	den := make([]float64, nS)
	ext := make([][4]float64, nX)
	sc.end()

	estep := func() {
		sc.begin("twolayer.infer_statements")
		run.InferStatements()
		sc.end()
		sc.begin("twolayer.infer_truth")
		run.InferTruth()
		sc.end()
	}
	rounds := 0
	for rounds < cfg.Rounds {
		estep()
		rounds++

		sc.begin("twolayer.mstep")
		run.SourcePartials(num, den)
		maxDelta := 0.0
		for s := range srcAcc {
			if den[s] < twolayer.MinEvidence {
				continue
			}
			v := twolayer.SourceAccuracyUpdate(num[s], den[s], cfg.InitSourceAccuracy)
			if d := v - srcAcc[s]; d > maxDelta {
				maxDelta = d
			} else if -d > maxDelta {
				maxDelta = -d
			}
			srcAcc[s] = v
		}
		run.ExtractorPartials(ext)
		for x, tot := range ext {
			if tot[0] > twolayer.MinEvidence {
				recall[x] = twolayer.RecallUpdate(tot[2], tot[0])
			}
			if tot[1] > twolayer.MinEvidence {
				falsePos[x] = twolayer.FalsePosUpdate(tot[3], tot[1])
			}
		}
		broadcast()
		sc.end()
		if maxDelta < twolayer.ConvergeTol {
			break
		}
	}
	sc.add("twolayer.rounds", float64(rounds))
	estep()

	sc.begin("twolayer.result")
	res := run.Result(rounds)
	_ = run.State() // FuseCompiledWarm hands every caller this warm-start payload too
	sc.end()
	return res, nil
}
