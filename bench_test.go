package kfusion

// Benchmarks regenerating every table and figure of the paper's evaluation
// section (Tables 1-3, Figures 3-7 and 9-22), plus pipeline-throughput
// benchmarks for the substrates. Quality metrics (weighted deviation,
// AUC-PR) are attached to the fusion benchmarks as custom units so
// `go test -bench` doubles as a reproduction report.
//
// The shared bench dataset is built once per process; fusion caches are
// cleared per iteration so timings measure real recomputation.

import (
	"bytes"
	"io"
	"runtime"
	"strconv"
	"testing"
	"time"

	"kfusion/internal/eval"
	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/kfio"
	"kfusion/internal/randx"
	"kfusion/internal/server"
	"kfusion/internal/shard"
	"kfusion/internal/twolayer"
	"kfusion/internal/web"
	"kfusion/internal/world"
)

const benchSeed = 4242

func benchDataset(b *testing.B) *exper.Dataset {
	b.Helper()
	return exper.SharedDataset(exper.ScaleBench, benchSeed)
}

// benchExperiment measures one registered experiment end to end.
func benchExperiment(b *testing.B, id string) {
	ds := benchDataset(b)
	ex := exper.ByID(id)
	if ex == nil {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		ds.ClearFusionCache()
		tb := ex.Run(ds)
		rows += len(tb.Rows)
	}
	if rows == 0 {
		b.Fatal("experiment produced no rows")
	}
}

func BenchmarkTable1CorpusStats(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable2ExtractorQuality(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3Functionality(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkFigure3ContentOverlap(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFigure4PredicateAccuracy(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFigure5ExtractorGap(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFigure6AccuracyByExtractors(b *testing.B) {
	benchExperiment(b, "fig6")
}
func BenchmarkFigure7AccuracyByURLs(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFigure9BasicModels also reports the reproduction metrics for the
// three basic models as custom benchmark units.
func BenchmarkFigure9BasicModels(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.ClearFusionCache()
		exper.Figure9(ds)
	}
	b.StopTimer()
	reportModelMetrics(b, ds, "VOTE", fusion.VoteConfig())
	reportModelMetrics(b, ds, "ACCU", fusion.AccuConfig())
	reportModelMetrics(b, ds, "POPACCU", fusion.PopAccuConfig())
}

func reportModelMetrics(b *testing.B, ds *exper.Dataset, name string, cfg fusion.Config) {
	res := ds.Fuse(name, cfg)
	rep := eval.Evaluate(name, res, ds.Gold)
	b.ReportMetric(rep.WDev, name+"-wdev")
	b.ReportMetric(rep.AUCPR, name+"-aucpr")
}

func BenchmarkFigure10Granularity(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11Filtering(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFigure12GoldInit(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFigure13Cumulative(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFigure14Convergence(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15PRCurves(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFigure16ProbabilityHistogram(b *testing.B) {
	benchExperiment(b, "fig16")
}
func BenchmarkFigure17ErrorAnalysis(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFigure18ProvenanceStratified(b *testing.B) {
	benchExperiment(b, "fig18")
}
func BenchmarkFigure19Kappa(b *testing.B)      { benchExperiment(b, "fig19") }
func BenchmarkFigure20TruthCount(b *testing.B) { benchExperiment(b, "fig20") }
func BenchmarkFigure21Confidence(b *testing.B) { benchExperiment(b, "fig21") }
func BenchmarkFigure22ConfidenceThreshold(b *testing.B) {
	benchExperiment(b, "fig22")
}

// ---- Pipeline throughput benchmarks ----

func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		world.MustGenerate(world.BenchConfig(benchSeed))
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	w := world.MustGenerate(world.BenchConfig(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		web.MustGenerate(w, web.BenchConfig(benchSeed+1))
	}
}

func BenchmarkExtractionSuite(b *testing.B) {
	ds := benchDataset(b)
	suite := NewExtractorSuite(ds.World, benchSeed+2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs := suite.Run(ds.World, ds.Corpus)
		b.ReportMetric(float64(len(xs)), "extractions")
	}
}

var benchSink float64

// BenchmarkSourceSplitDraw is the unit synthesis is made of: derive one
// (extractor, page) stream and draw a page's worth of numbers from it. The
// 0-draw case is 44 % of a ScaleLarge synthesis' streams and 95 % of the
// rest stop within 32 draws; 2 000 runs past the generator's lazy phases
// into the plain register.
func BenchmarkSourceSplitDraw(b *testing.B) {
	root := randx.New(benchSeed)
	for _, draws := range []int{0, 1, 16, 2000} {
		b.Run(strconv.Itoa(draws), func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				src := root.SplitN("TXT1|http://wiki042.example.com/page7", int64(i))
				for d := 0; d < draws; d++ {
					sum += src.Float64()
				}
			}
			benchSink = sum
		})
	}
}

// benchFusion measures one fusion preset's throughput in claims/sec.
func benchFusion(b *testing.B, cfg fusion.Config) {
	ds := benchDataset(b)
	claims := fusion.Claims(ds.Extractions, cfg.Granularity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fusion.MustFuse(claims, cfg)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(claims))*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
}

func BenchmarkFuseVote(b *testing.B)    { benchFusion(b, fusion.VoteConfig()) }
func BenchmarkFuseAccu(b *testing.B)    { benchFusion(b, fusion.AccuConfig()) }
func BenchmarkFusePopAccu(b *testing.B) { benchFusion(b, fusion.PopAccuConfig()) }
func BenchmarkFusePopAccuPlus(b *testing.B) {
	ds := benchDataset(b)
	benchFusion(b, fusion.PopAccuPlusConfig(ds.Gold.Labeler()))
}

// BenchmarkFuseReferencePopAccu measures the seed shuffle-per-round engine
// on the same dataset, so the compiled engine's before/after gap stays
// visible in every benchmark run.
func BenchmarkFuseReferencePopAccu(b *testing.B) {
	ds := benchDataset(b)
	cfg := fusion.PopAccuConfig()
	claims := fusion.Claims(ds.Extractions, cfg.Granularity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fusion.FuseReference(claims, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(claims))*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
}

// configSweep returns the 4-config sweep BenchmarkConfigSweep runs: VOTE,
// ACCU, POPACCU and POPACCU with the §4.3.2 filters, all at the default
// (Extractor, URL) granularity so they share one compiled claim graph — the
// workload shape of the paper's Tables 1-3 and the ablation suite, where many
// methods run over one extracted claim set. (The sweep-reuse workload builds
// its own list, with POPACCU+unsup for the filtered one.)
func configSweep() []fusion.Config {
	filtered := fusion.PopAccuConfig()
	filtered.FilterByCoverage = true
	filtered.AccuracyThreshold = 0.5
	return []fusion.Config{fusion.VoteConfig(), fusion.AccuConfig(), fusion.PopAccuConfig(), filtered}
}

// BenchmarkConfigSweep measures the multi-config workload that dominates the
// experiment layer (Tables 1-3, the ablation suite, θ/coverage sweeps): the
// same extracted claim set fused under 4 configurations. "recompile" pays
// the claims conversion + claim-graph compile per config — what Dataset.Fuse
// did before compiled-graph reuse — while "reuse" compiles once and fuses
// every config over the shared fusion.Compiled. claims/s counts
// claims × configs so the two numbers are directly comparable.
func BenchmarkConfigSweep(b *testing.B) {
	ds := benchDataset(b)
	sweep := configSweep()
	nClaims := len(fusion.Claims(ds.Extractions, fusion.GranExtractorURL))
	reportSweep := func(b *testing.B) {
		b.ReportMetric(float64(nClaims*len(sweep))*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
	}
	b.Run("recompile", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cfg := range sweep {
				fusion.MustFuse(fusion.Claims(ds.Extractions, cfg.Granularity), cfg)
			}
		}
		b.StopTimer()
		reportSweep(b)
	})
	b.Run("reuse", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compiled := fusion.MustCompile(fusion.Claims(ds.Extractions, fusion.GranExtractorURL))
			for _, cfg := range sweep {
				compiled.MustFuse(cfg)
			}
		}
		b.StopTimer()
		reportSweep(b)
	})
}

// BenchmarkAppendBatch measures the append-only feed scenario the
// incremental compile pipeline exists for: a 10% extraction batch lands on
// top of an already-compiled 90% prefix.
//
//   - recompile: the before path — flatten the whole feed to claims,
//     compile the claim graph from scratch, cold-fuse at the paper's R=5.
//   - append: AppendExtractions of the batch onto the compiled base, which
//     flattens and interns only the batch (bit-identical to the recompile), and
//     re-fuse as online EM — one warm-started round carrying the previous
//     generation's accuracies (evaluation quality pinned within documented
//     bounds by TestWarmStartQualityOnBenchDataset).
//
// The base compile runs off the clock each iteration (Append consumes the
// base generation's interning index; a production chain appends each
// generation once). claims/s counts the whole feed — the extractions served
// fresh after the batch lands — so append/recompile is the cost ratio of
// keeping the corpus up to date.
func BenchmarkAppendBatch(b *testing.B) {
	ds := benchDataset(b)
	xs := ds.Extractions
	n := len(xs)
	cut := n - n/10
	cfg := fusion.PopAccuConfig()
	report := func(b *testing.B) {
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
	}
	b.Run("recompile", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fusion.MustCompile(fusion.Claims(xs, cfg.Granularity)).MustFuse(cfg)
		}
		b.StopTimer()
		report(b)
	})
	b.Run("append", func(b *testing.B) {
		warmCfg := cfg
		warmCfg.Rounds = 1
		prev := fusion.MustCompile(fusion.Claims(xs[:cut], cfg.Granularity)).MustFuse(cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base := fusion.CompileExtractions(xs[:cut], cfg.Granularity, 0)
			runtime.GC() // keep setup garbage out of the timed region
			b.StartTimer()
			next, err := base.AppendExtractions(xs[cut:], cfg.Granularity)
			if err != nil {
				b.Fatal(err)
			}
			next.MustFuseWarm(warmCfg, prev)
		}
		b.StopTimer()
		report(b)
	})
	b.Run("twolayer-recompile", func(b *testing.B) {
		tcfg := twolayer.DefaultConfig()
		tcfg.SiteLevel = true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			twolayer.MustFuseCompiled(extract.Compile(xs, true), tcfg)
		}
		b.StopTimer()
		report(b)
	})
	b.Run("twolayer-append", func(b *testing.B) {
		tcfg := twolayer.DefaultConfig()
		tcfg.SiteLevel = true
		twarm := tcfg
		twarm.Rounds = 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base := extract.Compile(xs[:cut], true)
			_, state, err := twolayer.FuseCompiledWarm(base, tcfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC() // keep setup garbage out of the timed region
			b.StartTimer()
			next := base.Append(xs[cut:])
			if _, _, err := twolayer.FuseCompiledWarm(next, twarm, state); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		report(b)
	})
}

// BenchmarkAppendChain measures the steady state of a live append chain, which
// BenchmarkAppendBatch's single append onto a fresh compile (the copy-once
// path) does not show: one op is one 1 000-record batch appended to the
// generation the previous op returned. The chain starts from the bench
// dataset's graph minus its last appendChainSteps batches and restarts, off
// the clock, when the feed is used up; its first append (which copies the
// freshly compiled columns once) also runs off the clock. No fuse — the
// compile layer alone — so with -benchmem, B/op is the allocation per chained
// append: it must follow the batch and the CSRs, not the claim columns.
// claims/s counts the records appended.
func BenchmarkAppendChain(b *testing.B) {
	const batch, appendChainSteps = 1000, 20
	xs := benchDataset(b).Extractions
	cut := len(xs) - (appendChainSteps+1)*batch
	if cut <= 0 {
		b.Fatalf("bench dataset too small: %d extractions", len(xs))
	}
	// run drives one chain implementation: restart compiles the base and
	// pays the first append, step appends xs[lo:hi] to the chain's head.
	run := func(b *testing.B, restart func(), step func(lo, hi int)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % appendChainSteps
			if k == 0 {
				b.StopTimer()
				restart()
				runtime.GC() // keep setup garbage out of the timed region
				b.StartTimer()
			}
			step(cut+(k+1)*batch, cut+(k+2)*batch)
		}
		b.StopTimer()
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
	}
	b.Run("claim", func(b *testing.B) {
		gran := fusion.PopAccuConfig().Granularity
		var head *fusion.Compiled
		step := func(lo, hi int) {
			var err error
			if head, err = head.AppendExtractions(xs[lo:hi], gran); err != nil {
				b.Fatal(err)
			}
		}
		run(b, func() {
			head = fusion.CompileExtractions(xs[:cut], gran, 0)
			step(cut, cut+batch)
		}, step)
	})
	b.Run("extraction", func(b *testing.B) {
		var head *extract.Compiled
		run(b, func() {
			head = extract.Compile(xs[:cut], true).Append(xs[cut : cut+batch])
		}, func(lo, hi int) {
			head = head.Append(xs[lo:hi])
		})
	})
}

// BenchmarkServerAppend measures kfserved's write path in process, without
// HTTP or a disk: one op is Server.Append of a 400-record batch — journal
// into faultfs.Mem, incremental graph Append, one warm EM round, publishing
// the next generation's view — onto a daemon whose head holds the large
// dataset's first 50 000 records, once per served engine (popaccu, twolayer:
// same head, batch and filesystem). Periodic snapshots are off
// (SnapshotEvery -1), so ns/op is the append every generation pays; the
// daemon restarts from the head, off the clock, every serverAppendSteps ops.
// With -benchmem, B/op and allocs/op should follow the batch plus the warm
// round's per-generation columns — not a rebuild of the read index, and not
// the rows or the accuracy map of a generation nobody snapshots.
func BenchmarkServerAppend(b *testing.B) {
	const head, batch, serverAppendSteps = 50_000, 400, 100
	xs := exper.SharedDataset(exper.ScaleLarge, benchSeed).Extractions
	if len(xs) < head+serverAppendSteps*batch {
		b.Fatalf("large dataset too small: %d extractions", len(xs))
	}
	for _, method := range []string{"popaccu", "twolayer"} {
		b.Run(method, func(b *testing.B) {
			var srv *server.Server
			defer func() { srv.Close() }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % serverAppendSteps
				if k == 0 {
					b.StopTimer()
					if srv != nil {
						srv.Close()
					}
					var err error
					if srv, err = server.New(server.Config{FS: faultfs.NewMem(), Method: method, SnapshotEvery: -1}); err != nil {
						b.Fatal(err)
					}
					if err := srv.Hydrate(); err != nil {
						b.Fatal(err)
					}
					if _, err := srv.Append(xs[:head]); err != nil {
						b.Fatal(err)
					}
					runtime.GC() // keep setup garbage out of the timed region
					b.StartTimer()
				}
				if _, err := srv.Append(xs[head+k*batch : head+(k+1)*batch]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
		})
	}
}

// BenchmarkShardTwoLayerStep measures the K = 4 two-layer streaming step —
// the shape of the stream-sharded workload's two-layer half: one op is a
// 1 000-record Append onto shard.TwoLayer plus a warm one-round
// FusePosterior seeded with the previous step's State. The chain starts from
// a cold fuse of the bench dataset's first third and restarts there, off the
// clock, when the feed is used up. claims/s counts the records appended.
func BenchmarkShardTwoLayerStep(b *testing.B) {
	const k, batch = 4, 1000
	xs := benchDataset(b).Extractions
	head := len(xs) / 3
	steps := (len(xs) - head) / batch
	if steps == 0 {
		b.Fatalf("bench dataset too small: %d extractions", len(xs))
	}
	cfg := twolayer.DefaultConfig()
	warm := cfg
	warm.Rounds = 1
	var tl *shard.TwoLayer
	var st *twolayer.State
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := i % steps
		if step == 0 {
			b.StopTimer()
			if tl, err = shard.NewTwoLayer(k, cfg.SiteLevel); err != nil {
				b.Fatal(err)
			}
			tl.Append(xs[:head])
			if _, st, err = tl.FusePosterior(cfg, nil); err != nil {
				b.Fatal(err)
			}
			runtime.GC() // keep setup garbage out of the timed region
			b.StartTimer()
		}
		tl.Append(xs[head+step*batch : head+(step+1)*batch])
		if _, st, err = tl.FusePosterior(warm, st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
}

// BenchmarkShardFusionStep is BenchmarkShardTwoLayerStep's claim twin — the
// shape of the stream-sharded workload's fusion half: one op is a
// 1 000-record Append onto shard.Fusion plus a warm one-round POPACCU
// FuseWarm seeded with the previous step's result, its Result included. The
// chain starts from a cold fuse of the bench dataset's first third and
// restarts there, off the clock, when the feed is used up. claims/s counts
// the records appended.
func BenchmarkShardFusionStep(b *testing.B) {
	const k, batch = 4, 1000
	xs := benchDataset(b).Extractions
	head := len(xs) / 3
	steps := (len(xs) - head) / batch
	if steps == 0 {
		b.Fatalf("bench dataset too small: %d extractions", len(xs))
	}
	cfg := fusion.PopAccuConfig()
	warm := cfg
	warm.Rounds = 1
	var sf *shard.Fusion
	var res *fusion.Result
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := i % steps
		if step == 0 {
			b.StopTimer()
			if sf, err = shard.NewFusion(k, cfg.Granularity); err != nil {
				b.Fatal(err)
			}
			if err = sf.Append(xs[:head]); err != nil {
				b.Fatal(err)
			}
			if res, err = sf.Fuse(cfg); err != nil {
				b.Fatal(err)
			}
			runtime.GC() // keep setup garbage out of the timed region
			b.StartTimer()
		}
		if err = sf.Append(xs[head+step*batch : head+(step+1)*batch]); err != nil {
			b.Fatal(err)
		}
		if res, err = sf.FuseWarm(warm, res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
}

// BenchmarkTwoLayerFuse measures the §5.1 two-layer model on the bench
// extraction set: the compiled extraction-graph engine (end to end, and
// re-fusing over a prebuilt graph) against the map-keyed reference engine.
// claims/s counts raw extractions, the unit the two-layer model consumes.
func BenchmarkTwoLayerFuse(b *testing.B) {
	ds := benchDataset(b)
	cfg := twolayer.DefaultConfig()
	cfg.SiteLevel = true
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(ds.Extractions))*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
	}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			twolayer.MustFuse(ds.Extractions, cfg)
		}
		b.StopTimer()
		report(b)
	})
	b.Run("reuse", func(b *testing.B) {
		g := exper.SharedDataset(exper.ScaleBench, benchSeed).ExtractionGraph(true)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			twolayer.MustFuseCompiled(g, cfg)
		}
		b.StopTimer()
		report(b)
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			twolayer.MustFuseReference(ds.Extractions, cfg)
		}
		b.StopTimer()
		report(b)
	})
}

func benchName(workers int) string {
	return "workers-" + strconv.Itoa(workers)
}

// BenchmarkTwoLayerScaling measures the two-layer EM loops (both E-steps,
// the per-source M-step pass and the fixed-block extractor-rate reduction)
// over a prebuilt extraction graph at several worker counts. Results are
// bit-identical across the counts — the reduction trees are fixed by the
// data — so the sub-benchmarks differ only in speed; on a 1-core box they
// collapse to the workers-1 number (the loops still fan out, but the
// scheduler serializes them). BenchmarkClaimScaling is its claim twin.
func BenchmarkTwoLayerScaling(b *testing.B) {
	ds := benchDataset(b)
	g := ds.ExtractionGraph(true)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			cfg := twolayer.DefaultConfig()
			cfg.SiteLevel = true
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				twolayer.MustFuseCompiled(g, cfg)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(ds.Extractions))*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
		})
	}
}

// BenchmarkClaimScaling measures the claim engine's EM loops (stage I over
// items, the stage-II partials over provenances, stage III over triples) in
// a POPACCU fuse over a prebuilt claim graph at several worker counts — the
// claim twin of BenchmarkTwoLayerScaling. Results are bit-identical across
// the counts, so the sub-benchmarks differ only in speed.
func BenchmarkClaimScaling(b *testing.B) {
	ds := benchDataset(b)
	cfg := fusion.PopAccuConfig()
	g := ds.Compiled(cfg.Granularity)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.MustFuse(c)
			}
			b.StopTimer()
			b.ReportMetric(float64(g.NumClaims())*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
		})
	}
}

// BenchmarkExtractCompileGraph measures extract.Compile itself — interning,
// CSR adjacency and the ext→statement incidence — by workers, on the bench
// extraction set: the counting passes split from two workers on, and
// interning is the one sequential loop at every workers value (compare
// workers-1 with workers-2 and workers-4 before adding a parallel pass).
func BenchmarkExtractCompileGraph(b *testing.B) {
	ds := benchDataset(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				extract.CompileWorkers(ds.Extractions, true, workers)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(ds.Extractions))*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
		})
	}
}

// BenchmarkCompileClaimGraph measures fusion.Compile itself — the interning
// and CSR build every fusion run amortizes — by workers, on the large claim
// set where the parallel counting sort engages (and, from four workers,
// interning in one range per worker).
func BenchmarkCompileClaimGraph(b *testing.B) {
	ds := exper.SharedDataset(exper.ScaleLarge, benchSeed)
	claims := fusion.Claims(ds.Extractions, fusion.GranExtractorURL)
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fusion.CompileWorkers(claims, workers, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(claims))*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
		})
	}
}

// TestFourCoreScaling is the measurement a 2-vCPU box cannot make: the two
// deterministically-parallel hot paths — the two-layer EM loops over a
// prebuilt extraction graph (BenchmarkTwoLayerScaling) and claim-graph
// compilation on the large claim set (BenchmarkCompileClaimGraph: parallel
// counting passes, one intern range per worker from four workers)
// — must run at least 1.5x faster with four workers than with one. Both are
// bit-identical across worker counts, so speed is all the comparison varies;
// 1.5x is conservative against the 2-3x these paths show on a quiet 4-core
// box and still catches parallelism regressing into overhead. Each side is
// the fastest of five runs. Skipped where fewer than four CPUs can run.
func TestFourCoreScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("bench- and large-scale datasets in -short mode")
	}
	if cpus := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); cpus < 4 {
		t.Skipf("needs 4 CPUs, have %d", cpus)
	}
	const minSpeedup = 1.5
	g := exper.SharedDataset(exper.ScaleBench, benchSeed).ExtractionGraph(true)
	claims := fusion.Claims(exper.SharedDataset(exper.ScaleLarge, benchSeed).Extractions, fusion.GranExtractorURL)
	for _, path := range []struct {
		name string
		run  func(workers int)
	}{
		{"two-layer EM", func(workers int) {
			cfg := twolayer.DefaultConfig()
			cfg.SiteLevel = true
			cfg.Workers = workers
			twolayer.MustFuseCompiled(g, cfg)
		}},
		{"claim-graph compile", func(workers int) {
			if _, err := fusion.CompileWorkers(claims, workers, 0); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		fastest := func(workers int) time.Duration {
			var best time.Duration
			for i := 0; i < 5; i++ {
				start := time.Now()
				path.run(workers)
				best = fasterOf(best, time.Since(start))
			}
			return best
		}
		one, four := fastest(1), fastest(4)
		speedup := float64(one) / float64(four)
		t.Logf("%s: workers-1 %v, workers-4 %v: %.2fx (floor %.1fx)", path.name, one, four, speedup, minSpeedup)
		if speedup < minSpeedup {
			t.Errorf("%s: four workers only %.2fx one worker, floor %.1fx", path.name, speedup, minSpeedup)
		}
	}
}

// TestFourCoreFeedCompile is the other half of that measurement: a cold
// CompileExtractions interns the feed sequentially, where flattening by
// Claims and compiling by CompileWorkers interns in one range per worker from
// four workers on. At four workers on the large
// dataset the one-pass feed compile must be no slower than that two-pass
// path: the sequential flatten costs both about the same, and only the second
// adds an interning pass. Each side is the fastest of five runs. Skipped
// where fewer than four CPUs can run.
func TestFourCoreFeedCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale dataset in -short mode")
	}
	if cpus := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); cpus < 4 {
		t.Skipf("needs 4 CPUs, have %d", cpus)
	}
	const workers = 4
	xs := exper.SharedDataset(exper.ScaleLarge, benchSeed).Extractions
	fastest := func(run func()) time.Duration {
		var best time.Duration
		for i := 0; i < 5; i++ {
			start := time.Now()
			run()
			best = fasterOf(best, time.Since(start))
		}
		return best
	}
	feed := fastest(func() { fusion.CompileExtractions(xs, fusion.GranExtractorURL, workers) })
	twoPass := fastest(func() {
		if _, err := fusion.CompileWorkers(fusion.Claims(xs, fusion.GranExtractorURL), workers, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold compile of %d records at %d workers: CompileExtractions %v, Claims+CompileWorkers %v", len(xs), workers, feed, twoPass)
	if feed > twoPass {
		t.Errorf("CompileExtractions %v slower than Claims+CompileWorkers %v at %d workers", feed, twoPass, workers)
	}
}

// BenchmarkReadExtractions measures feed ingestion alone: the bench dataset
// encoded once into memory, then ReadBatch(8192) to EOF per iteration — MB/s,
// records/s and (with -benchmem) bytes and allocations per parsed feed.
func BenchmarkReadExtractions(b *testing.B) {
	xs := benchDataset(b).Extractions
	var feed bytes.Buffer
	if err := kfio.WriteExtractions(&feed, xs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(feed.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := kfio.NewExtractionReader(bytes.NewReader(feed.Bytes()))
		n := 0
		for {
			batch, err := r.ReadBatch(8192)
			n += len(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if n != len(xs) {
			b.Fatalf("read %d of %d records", n, len(xs))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(xs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkWriteExtractions encodes the benchmark harness's feed — the first
// 150 000 ScaleLarge records at the bench seed — through one
// ExtractionWriter.WriteBatch and Flush. Add -cpu 1,2 to see the serial
// encode beside the per-worker ranges.
func BenchmarkWriteExtractions(b *testing.B) {
	xs := exper.SharedDataset(exper.ScaleLarge, benchSeed).Extractions
	xs = xs[:min(len(xs), 150_000)]
	var out bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		w := kfio.NewExtractionWriter(&out)
		if err := w.WriteBatch(xs); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(out.Len()))
	b.ReportMetric(float64(len(xs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkCompileExtractions measures the claim layer from records to graph
// the way a chain grows it: one fresh CompileExtractions per iteration, then
// AppendExtractions of the rest of the bench dataset in ReadBatch-sized
// batches — the flatten and the interning in one pass.
func BenchmarkCompileExtractions(b *testing.B) {
	xs := benchDataset(b).Extractions
	const batch = 8192
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := fusion.CompileExtractions(xs[:min(batch, len(xs))], fusion.GranExtractorURL, 0)
		for off := batch; off < len(xs); off += batch {
			var err error
			if g, err = g.AppendExtractions(xs[off:min(off+batch, len(xs))], fusion.GranExtractorURL); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(xs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkWriteFused measures the fused-file writer alone: the bench
// dataset's POPACCU result, fused once, encoded to JSONL per iteration — MB/s,
// rows/s and (with -benchmem) bytes and allocations per written file.
func BenchmarkWriteFused(b *testing.B) {
	cfg := fusion.PopAccuConfig()
	res := fusion.MustFuse(fusion.Claims(benchDataset(b).Extractions, cfg.Granularity), cfg)
	var out bytes.Buffer
	if err := kfio.WriteFused(&out, res); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := kfio.WriteFused(&out, res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(res.Triples))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// ---- Ablation benchmarks for the §5 future-direction implementations ----

func BenchmarkAblationTwoLayer(b *testing.B)   { benchExperiment(b, "abl-twolayer") }
func BenchmarkAblationMultiTruth(b *testing.B) { benchExperiment(b, "abl-multitruth") }
func BenchmarkAblationSoftLCWA(b *testing.B)   { benchExperiment(b, "abl-softlcwa") }

// BenchmarkLargeScaleFusion validates the paper's scale concern (§3.2.2's
// third challenge) at the largest size this harness builds: hundreds of
// thousands of extracted claims through the full 3-stage pipeline.
func BenchmarkLargeScaleFusion(b *testing.B) {
	ds := exper.SharedDataset(exper.ScaleLarge, benchSeed)
	cfg := fusion.PopAccuConfig()
	claims := fusion.Claims(ds.Extractions, cfg.Granularity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := fusion.MustFuse(claims, cfg)
		if len(res.Triples) == 0 {
			b.Fatal("no output")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(ds.Extractions)), "extractions")
	b.ReportMetric(float64(len(claims))*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
}
