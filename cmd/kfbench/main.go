// Command kfbench regenerates the paper's evaluation: every table (1-3) and
// figure (3-7, 9-22) over a synthetic dataset, printing paper-style rows and
// HOLDS/VIOLATED notes for the qualitative claims.
//
// Usage:
//
//	kfbench                      # all experiments at small scale
//	kfbench -scale bench         # the reproduction numbers
//	kfbench -exp fig9,fig13      # selected experiments
//	kfbench -seeds 5             # re-run across 5 seeds; report check stability
//	kfbench -list                # list experiment IDs
//	kfbench -benchjson FILE      # fusion throughput benchmarks as JSON
//	kfbench -serve FILE          # kfserved read-path latency under load, merged into FILE
//	kfbench -sharded FILE        # web-scale sharded fusion (10M+ claims), merged into FILE
//	kfbench -check BENCH_10.json # CI perf-regression gate against a baseline
//	kfbench -check BENCH_10.json -prior BENCH_5.json  # plus the committed gain gate
//	kfbench -scaling FILE        # parallel hot paths at the current GOMAXPROCS
//	kfbench -scalingcheck A,B,C  # multi-core speedup gate over -scaling cells
//
// -benchjson measures the fusion engines (compiled and seed reference) over
// the bench and large shared datasets, the §5.1 two-layer model (compiled
// extraction graph vs map-keyed reference), claim-graph compilation
// (sequential vs parallel CSR build), the multi-config sweep with and
// without compiled-claim-graph reuse (ConfigSweepReuse vs
// ConfigSweepRecompile), and the append-only feed pairs (AppendFusePopAccu
// vs RecompileFusePopAccu, TwoLayerAppend vs TwoLayerRecompile — a 10%
// batch appended onto a compiled 90% prefix and warm-start re-fused, vs
// flattening, recompiling and cold-fusing the whole feed), the stage-II
// kernel triple (KernelScalarStageII vs KernelBatchStageII vs
// KernelBatchStageIIFast — the scalar, batched-exact and polynomial-fast
// forms of the log-odds + softmax pass over the engines' operating domain),
// and writes one machine-readable JSON record — the cross-PR perf
// trajectory lives in BENCH_<n>.json files at the repository root.
//
// -check is the bench-regression gate CI runs on every push: it re-measures
// the fast compiled/reference benchmark pairs on the bench dataset and
// compares each pair's claims/s SPEEDUP RATIO against the committed baseline
// file. Comparing ratios rather than absolute claims/s cancels the raw speed
// of the machine running the check (CI runners vary wildly), while still
// catching the real failure mode: a compiled fast path losing its edge over
// its reference engine. A ratio drop beyond -checktol (default 30%) fails.
// With -prior it additionally gates the committed baseline against an
// earlier committed BENCH file: the gained records (FusePopAccu,
// TwoLayerFuseReuse) must hold -mingain (default 1.5x) claims/s over the
// prior — a deterministic file-vs-file check, since both were recorded on
// the same reference box.
//
// -scaling measures the deterministically-parallel hot paths — the two-layer
// EM loops over a prebuilt extraction graph (TwoLayerParallel), claim-graph
// compilation (CompileParallel) and extraction-graph compilation
// (ExtractCompileParallel) — at whatever GOMAXPROCS the process was given,
// and writes one JSON cell. CI runs it under a GOMAXPROCS matrix on
// multi-core runners; -scalingcheck then compares the cells and fails if the
// highest-core cell's TwoLayerParallel or CompileParallel claims/s speedup
// over the 1-core cell falls below -minspeedup (default 1.5x). This is the
// measurement the 1-core reference box cannot make: all three paths are
// bit-identical across worker counts, so the only thing the matrix varies is
// speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/mathx"
	"kfusion/internal/twolayer"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kfbench: ")
	var (
		scaleFlag  = flag.String("scale", "small", "dataset scale: small or bench")
		seed       = flag.Int64("seed", 42, "generation seed")
		expFlag    = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		seeds      = flag.Int("seeds", 1, "run across this many consecutive seeds and report per-check stability")
		benchJSON  = flag.String("benchjson", "", "run the fusion throughput benchmarks and write JSON to this file")
		check      = flag.String("check", "", "compare fresh benchmark speedup ratios against this baseline BENCH json; exit non-zero on regression")
		prior      = flag.String("prior", "", "with -check: an earlier committed BENCH json; the baseline's gained records must beat it by -mingain")
		minGain    = flag.Float64("mingain", 1.5, "with -check -prior: minimum claims/s gain of the baseline's gained records over the prior file")
		checkJSON  = flag.String("checkjson", "", "with -check: also write the fresh measurements as JSON to this file")
		checkTol   = flag.Float64("checktol", 0.30, "with -check: maximum tolerated fractional drop of a pair's speedup ratio")
		serve      = flag.String("serve", "", "measure kfserved read-path latency under concurrent clients and merge the record into this BENCH json")
		serveCli   = flag.Int("serveclients", 8, "with -serve: concurrent clients")
		serveReqs  = flag.Int("servereqs", 1000, "with -serve: item reads per client")
		sharded    = flag.String("sharded", "", "measure web-scale sharded fusion and merge the record into this BENCH json")
		shardK     = flag.Int("shardk", 8, "with -sharded: shard count K")
		shardTgt   = flag.Int("shardclaims", 10_000_000, "with -sharded: minimum feed size in extraction records")
		shardFeed  = flag.String("shardfeed", "", "with -sharded: reuse/generate the feed at this path instead of a throwaway temp file")
		scaling    = flag.String("scaling", "", "measure the parallel hot paths at the current GOMAXPROCS and write one JSON cell to this file")
		scalingChk = flag.String("scalingcheck", "", "comma-separated -scaling cell files; exit non-zero if the top cell's gated speedups over the 1-core cell fall below -minspeedup")
		minSpeedup = flag.Float64("minspeedup", 1.5, "with -scalingcheck: minimum claims/s speedup of the highest-GOMAXPROCS cell over the 1-core cell")
	)
	flag.Parse()

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *serve != "" {
		if err := runServeBench(*serve, *seed, *serveCli, *serveReqs); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *sharded != "" {
		if err := runShardedBench(*sharded, *seed, *shardK, *shardTgt, *shardFeed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *check != "" {
		if err := runCheck(*check, *checkJSON, *checkTol, *seed, *prior, *minGain); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *scaling != "" {
		if err := writeScalingJSON(*scaling, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *scalingChk != "" {
		if err := runScalingCheck(*scalingChk, *minSpeedup); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *list {
		for _, ex := range exper.Registry {
			fmt.Printf("%-8s %s\n", ex.ID, ex.Title)
		}
		return
	}

	scale := exper.ScaleSmall
	switch *scaleFlag {
	case "small":
	case "bench":
		scale = exper.ScaleBench
	default:
		log.Fatalf("unknown -scale %q (want small or bench)", *scaleFlag)
	}

	var selected []exper.Experiment
	if *expFlag == "" {
		selected = exper.Registry
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ex := exper.ByID(strings.TrimSpace(id))
			if ex == nil {
				log.Fatalf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, *ex)
		}
	}

	if *seeds > 1 {
		runMultiSeed(scale, *seed, *seeds, selected)
		return
	}

	start := time.Now()
	ds := exper.SharedDataset(scale, *seed)
	fmt.Printf("dataset: %s; %d pages, %d extractions (built in %v)\n\n",
		ds.World.Stats(), len(ds.Corpus.Pages), len(ds.Extractions), time.Since(start).Round(time.Millisecond))

	violations := 0
	for _, ex := range selected {
		t0 := time.Now()
		tb := ex.Run(ds)
		tb.Render(os.Stdout)
		fmt.Printf("(%v)\n\n", time.Since(t0).Round(time.Millisecond))
		for _, n := range tb.Notes {
			if strings.HasPrefix(n, "VIOLATED") {
				violations++
			}
		}
	}
	if violations > 0 {
		fmt.Printf("%d paper-shape check(s) VIOLATED\n", violations)
		os.Exit(1)
	}
}

// runMultiSeed re-runs the selected experiments on n consecutive seeds and
// reports, for every HOLDS/VIOLATED shape check, how many seeds it held on —
// the honest way to read checks whose margins sit near seed noise.
func runMultiSeed(scale exper.Scale, baseSeed int64, n int, selected []exper.Experiment) {
	type tally struct{ holds, total int }
	checks := map[string]*tally{}
	order := []string{}
	for i := 0; i < n; i++ {
		seed := baseSeed + int64(i)*101
		ds := exper.SharedDataset(scale, seed)
		fmt.Printf("seed %d: %d extractions\n", seed, len(ds.Extractions))
		for _, ex := range selected {
			tb := ex.Run(ds)
			for _, note := range tb.Notes {
				var held bool
				var msg string
				switch {
				case strings.HasPrefix(note, "HOLDS: "):
					held, msg = true, strings.TrimPrefix(note, "HOLDS: ")
				case strings.HasPrefix(note, "VIOLATED: "):
					held, msg = false, strings.TrimPrefix(note, "VIOLATED: ")
				default:
					continue
				}
				key := ex.ID + ": " + msg
				t, ok := checks[key]
				if !ok {
					t = &tally{}
					checks[key] = t
					order = append(order, key)
				}
				t.total++
				if held {
					t.holds++
				}
			}
		}
	}
	fmt.Printf("\nshape-check stability across %d seeds:\n", n)
	unstable := 0
	for _, key := range order {
		t := checks[key]
		marker := "stable  "
		if t.holds < t.total {
			marker = "UNSTABLE"
			unstable++
		}
		fmt.Printf("  %s %d/%d  %s\n", marker, t.holds, t.total, key)
	}
	if unstable > 0 {
		fmt.Printf("%d check(s) did not hold on every seed\n", unstable)
	}
}

// benchRecord is one benchmark's machine-readable result.
type benchRecord struct {
	NsPerOp     int64   `json:"ns_op"`
	ClaimsPerS  float64 `json:"claims_per_s"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	Iterations  int     `json:"iterations"`
}

// benchFile is the BENCH_<n>.json schema: environment metadata plus one
// record per benchmark. The Reference* entries run the seed
// shuffle-per-round engine (fusion.FuseReference), so every file carries its
// own before/after pair for the compiled engine.
type benchFile struct {
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	CPU        string                 `json:"goarch"`
	Seed       int64                  `json:"seed"`
	Date       string                 `json:"date"`
	Benchmarks map[string]benchRecord `json:"benchmarks"`
	// Serve is the kfserved read-path latency record (-serve); absolute
	// and machine-dependent, so the -check gate validates its shape only.
	Serve *serveRecord `json:"serve,omitempty"`
	// Sharded is the web-scale sharded-fusion record (-sharded); absolute
	// throughputs, so the -check gate validates shape and re-verifies
	// shard-count independence live at bench scale.
	Sharded *shardedRecord `json:"sharded,omitempty"`
}

// newBenchFile returns a benchFile stamped with this run's environment.
func newBenchFile(seed int64) benchFile {
	return benchFile{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        runtime.GOARCH,
		Seed:       seed,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Benchmarks: map[string]benchRecord{},
	}
}

// measure runs op under testing.Benchmark and converts the result into a
// benchRecord; claimsPerOp is the work-unit count one op processes (claims,
// extractions, or claims × configs), from which claims/s is derived.
func measure(claimsPerOp float64, op func()) benchRecord {
	return measureWithSetup(claimsPerOp, nil, op)
}

// measureWithSetup is measure with an untimed per-iteration setup: setup
// runs with the benchmark timer stopped before every op. The Append
// benchmarks need it because Append consumes the base generation's interning
// index (the production shape is a chain, each generation appended once), so
// every measured append must start from a freshly compiled base — built off
// the clock. A forced GC after each setup keeps the setup's allocation
// garbage from being collected inside — and charged to — the timed region.
func measureWithSetup(claimsPerOp float64, setup, op func()) benchRecord {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if setup != nil {
				b.StopTimer()
				setup()
				runtime.GC()
				b.StartTimer()
			}
			op()
		}
	})
	return benchRecord{
		NsPerOp:     r.NsPerOp(),
		ClaimsPerS:  claimsPerOp / (float64(r.NsPerOp()) / 1e9),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Iterations:  r.N,
	}
}

// benchTwoLayer measures the two-layer pair over the bench dataset into out:
// the compiled extraction-graph engine end to end vs the map-keyed reference.
// Shared by -benchjson and -check so the gate compares like with like.
func benchTwoLayer(out *benchFile, bench *exper.Dataset) {
	cfg := twolayer.DefaultConfig()
	cfg.SiteLevel = true
	n := float64(len(bench.Extractions))
	fmt.Fprintf(os.Stderr, "benchmarking TwoLayerFuse (%d extractions)...\n", len(bench.Extractions))
	out.Benchmarks["TwoLayerFuse"] = measure(n, func() {
		twolayer.MustFuse(bench.Extractions, cfg)
	})
	g := extract.Compile(bench.Extractions, true)
	fmt.Fprintf(os.Stderr, "benchmarking TwoLayerFuseReuse...\n")
	out.Benchmarks["TwoLayerFuseReuse"] = measure(n, func() {
		twolayer.MustFuseCompiled(g, cfg)
	})
	fmt.Fprintf(os.Stderr, "benchmarking ReferenceTwoLayerFuse...\n")
	out.Benchmarks["ReferenceTwoLayerFuse"] = measure(n, func() {
		twolayer.MustFuseReference(bench.Extractions, cfg)
	})
}

// benchAppend measures the AppendVsRecompile pairs on the bench dataset:
// the steady state of an append-only extraction feed, where a 10% batch
// arrives on top of an already-compiled 90% prefix.
//
//   - Recompile records are the before path: flatten the whole feed to
//     claims (or compile the whole extraction graph), compile from scratch
//     and cold-fuse under the paper's R = 5.
//   - Append records are the incremental path: flatten only the batch
//     through the generation's ClaimStream, extend the compiled graph with
//     Append (bit-identical to the recompile), and re-fuse as online EM —
//     one warm-started round carrying the previous generation's posteriors.
//     Evaluation quality matches the cold R = 5 output within the bounds
//     pinned by TestWarmStartQualityOnBenchDataset; the outputs are not
//     pointwise-equal (POPACCU's EM oscillates rather than converges, so
//     R-capped runs are truncations, not fixed points).
//
// claims/s counts the extractions SERVED after the batch lands (the whole
// feed), so the Append/Recompile ratio is the cost ratio of keeping the
// same corpus fresh. The base compile + base fuse run off the clock per
// iteration (measureWithSetup): a production chain appends each generation
// once, so the measured op starts from a warm chain.
func benchAppend(out *benchFile, bench *exper.Dataset) {
	xs := bench.Extractions
	n := len(xs)
	cut := n - n/10
	units := float64(n)

	cfg := fusion.PopAccuConfig()
	fmt.Fprintf(os.Stderr, "benchmarking RecompileFusePopAccu (%d extractions)...\n", n)
	out.Benchmarks["RecompileFusePopAccu"] = measure(units, func() {
		fusion.MustCompile(fusion.Claims(xs, cfg.Granularity)).MustFuse(cfg)
	})
	warmCfg := cfg
	warmCfg.Rounds = 1
	prev := fusion.MustCompile(fusion.Claims(xs[:cut], cfg.Granularity)).MustFuse(cfg)
	var base *fusion.Compiled
	var stream *fusion.ClaimStream
	fmt.Fprintf(os.Stderr, "benchmarking AppendFusePopAccu (10%% batch)...\n")
	out.Benchmarks["AppendFusePopAccu"] = measureWithSetup(units, func() {
		stream = fusion.NewClaimStream(cfg.Granularity)
		base = fusion.MustCompile(stream.Add(xs[:cut]))
	}, func() {
		next := base.MustAppend(stream.Add(xs[cut:]))
		next.MustFuseWarm(warmCfg, prev)
	})

	tcfg := twolayer.DefaultConfig()
	tcfg.SiteLevel = true
	fmt.Fprintf(os.Stderr, "benchmarking TwoLayerRecompile...\n")
	out.Benchmarks["TwoLayerRecompile"] = measure(units, func() {
		twolayer.MustFuseCompiled(extract.Compile(xs, true), tcfg)
	})
	twarm := tcfg
	twarm.Rounds = 1
	var tbase *extract.Compiled
	var tstate *twolayer.State
	fmt.Fprintf(os.Stderr, "benchmarking TwoLayerAppend (10%% batch)...\n")
	out.Benchmarks["TwoLayerAppend"] = measureWithSetup(units, func() {
		tbase = extract.Compile(xs[:cut], true)
		_, tstate, _ = twolayer.FuseCompiledWarm(tbase, tcfg, nil)
	}, func() {
		next := tbase.Append(xs[cut:])
		if _, _, err := twolayer.FuseCompiledWarm(next, twarm, tstate); err != nil {
			panic(err)
		}
	})
}

// benchWarmBoot measures the durable-state boot pair on the bench dataset:
// restoring the compiled claim graph and fused result from a generation
// store snapshot (the kfuse -append -state restart path: read, checksum,
// decode, validate) vs recompiling the feed and cold-fusing. claims/s counts
// the extractions served once the process is back up, so the
// Restore/Recompile ratio is the warm-boot win of persisting generations.
func benchWarmBoot(out *benchFile, bench *exper.Dataset) {
	xs := bench.Extractions
	units := float64(len(xs))
	cfg := fusion.PopAccuConfig()

	apply := genstore.ClaimChain("popaccu", cfg, 0).Apply

	mem := faultfs.NewMem()
	store, st, err := genstore.OpenFS(mem, apply)
	if err != nil {
		panic(err)
	}
	if err := store.Append(st, xs); err != nil {
		panic(err)
	}
	if err := store.Snapshot(st); err != nil {
		panic(err)
	}
	store.Close()

	fmt.Fprintf(os.Stderr, "benchmarking WarmBootRestore (%d extractions)...\n", len(xs))
	out.Benchmarks["WarmBootRestore"] = measure(units, func() {
		s2, st2, err := genstore.OpenFS(mem, apply)
		if err != nil {
			panic(err)
		}
		if st2.Claim == nil || st2.Result == nil {
			panic("warm boot restored an empty state")
		}
		s2.Close()
	})
	fmt.Fprintf(os.Stderr, "benchmarking WarmBootRecompile...\n")
	out.Benchmarks["WarmBootRecompile"] = measure(units, func() {
		fusion.MustCompile(fusion.Claims(xs, cfg.Granularity)).MustFuse(cfg)
	})
}

// benchConfigSweep measures the multi-config sweep pair over the bench
// dataset into out: one compiled claim graph serving every sweep config vs
// the per-config claims+compile the experiment layer used to do. claims/s
// counts claims × configs, so the Reuse/Recompile ratio is the amortization
// win of fusion.Compile.
func benchConfigSweep(out *benchFile, bench *exper.Dataset) {
	sweep := exper.ConfigSweep()
	nSweepClaims := len(fusion.Claims(bench.Extractions, fusion.Granularity{}))
	units := float64(nSweepClaims * len(sweep))
	fmt.Fprintf(os.Stderr, "benchmarking ConfigSweep (%d claims x %d configs)...\n", nSweepClaims, len(sweep))
	out.Benchmarks["ConfigSweepRecompile"] = measure(units, func() {
		for _, p := range sweep {
			fusion.MustFuse(fusion.Claims(bench.Extractions, p.Cfg.Granularity), p.Cfg)
		}
	})
	out.Benchmarks["ConfigSweepReuse"] = measure(units, func() {
		compiled := fusion.MustCompile(fusion.Claims(bench.Extractions, fusion.Granularity{}))
		for _, p := range sweep {
			compiled.MustFuse(p.Cfg)
		}
	})
}

// benchKernels measures the stage-II scoring kernels in isolation, over
// buffers shaped like the bench dataset's operating domain: a per-claim
// accuracy → log-odds pass followed by per-item softmax normalization in
// fixed 64-lane blocks. The accuracy lanes cycle the dataset's actual fused
// provenance accuracies, so the kernels see the clamped [0.005, 0.995]
// values the engines feed them, not synthetic uniforms.
//
//   - KernelScalarStageII is the seed form: one math.Log per lane plus the
//     two-pass scalar softmax (two math.Exp per lane).
//   - KernelBatchStageII is the mathx exact batched form the engines now
//     run — bit-identical outputs, branches hoisted, one exp per lane.
//   - KernelBatchStageIIFast swaps in the mathx.Fast polynomial kernels
//     (the Config.FastMath path).
//
// claims/s counts lanes per op, so the Batch/Scalar ratio is the pure
// kernel-restructuring win with the EM bookkeeping factored out.
func benchKernels(out *benchFile, bench *exper.Dataset) {
	cfg := fusion.PopAccuConfig()
	res := fusion.MustFuse(fusion.Claims(bench.Extractions, cfg.Granularity), cfg)
	provs := make([]string, 0, len(res.ProvAccuracy))
	for p := range res.ProvAccuracy {
		provs = append(provs, p)
	}
	sort.Strings(provs)

	const lanes = 1 << 20
	const block = 64 // candidate lanes per softmax item
	const nf, lo, hi = 100.0, 0.005, 0.995
	acc := make([]float64, lanes)
	for i := range acc {
		acc[i] = res.ProvAccuracy[provs[i%len(provs)]]
	}
	dst := make([]float64, lanes)

	fmt.Fprintf(os.Stderr, "benchmarking KernelStageII (%d lanes, %d provenance accuracies)...\n", lanes, len(provs))
	out.Benchmarks["KernelScalarStageII"] = measure(lanes, func() {
		for i, a := range acc {
			if a < lo {
				a = lo
			} else if a > hi {
				a = hi
			}
			dst[i] = math.Log(nf * a / (1 - a))
		}
		for b := 0; b < lanes; b += block {
			blk := dst[b : b+block]
			m := 0.0
			for _, s := range blk {
				if s > m {
					m = s
				}
			}
			denom := 0.0
			for _, s := range blk {
				denom += math.Exp(s - m)
			}
			for i, s := range blk {
				blk[i] = math.Exp(s-m) / denom
			}
		}
	})
	batched := func(kern *mathx.Kernels) func() {
		return func() {
			kern.LogOddsSlice(dst, acc, nf, lo, hi)
			for b := 0; b < lanes; b += block {
				blk := dst[b : b+block]
				kern.SoftmaxInto(blk, blk, 0)
			}
		}
	}
	out.Benchmarks["KernelBatchStageII"] = measure(lanes, batched(mathx.Exact))
	out.Benchmarks["KernelBatchStageIIFast"] = measure(lanes, batched(mathx.Fast))
}

// benchFusePair measures one fusion preset under the compiled engine and,
// when ref is true, the seed reference engine.
func benchFusePair(out *benchFile, name string, claims []fusion.Claim, cfg fusion.Config, ref bool) {
	fmt.Fprintf(os.Stderr, "benchmarking %s (%d claims)...\n", name, len(claims))
	out.Benchmarks[name] = measure(float64(len(claims)), func() {
		fusion.MustFuse(claims, cfg)
	})
	if !ref {
		return
	}
	fmt.Fprintf(os.Stderr, "benchmarking Reference%s...\n", name)
	out.Benchmarks["Reference"+name] = measure(float64(len(claims)), func() {
		if _, err := fusion.FuseReference(claims, cfg); err != nil {
			panic(err)
		}
	})
}

// writeBenchJSON measures fusion throughput on the shared bench and large
// datasets — compiled engine and seed reference engine — and writes the
// results as JSON for the cross-PR perf trajectory.
func writeBenchJSON(path string, seed int64) error {
	// Fail on an unwritable path now, not after minutes of benchmarking.
	probe, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	probe.Close()
	out := newBenchFile(seed)

	// The bench-dataset records — including the gained FusePopAccu and
	// TwoLayerFuseReuse pairs the -prior gate holds to the cross-PR bar —
	// are all measured BEFORE the large dataset is synthesized: tens of
	// megabytes of extra live heap would otherwise sit in the GC mark set
	// (and the cache) under every op, inflating the committed numbers by a
	// measurement artifact the gate would then bake in.
	fmt.Fprintf(os.Stderr, "building bench dataset...\n")
	bench := exper.SharedDataset(exper.ScaleBench, seed)

	for _, preset := range []struct {
		name string
		cfg  fusion.Config
	}{
		{"FuseVote", fusion.VoteConfig()},
		{"FuseAccu", fusion.AccuConfig()},
		{"FusePopAccu", fusion.PopAccuConfig()},
		{"FusePopAccuPlus", fusion.PopAccuPlusConfig(bench.Gold.Labeler())},
	} {
		claims := fusion.Claims(bench.Extractions, preset.cfg.Granularity)
		benchFusePair(&out, preset.name, claims, preset.cfg, true)
	}
	benchConfigSweep(&out, bench)
	benchTwoLayer(&out, bench)
	benchAppend(&out, bench)
	benchWarmBoot(&out, bench)
	benchKernels(&out, bench)

	fmt.Fprintf(os.Stderr, "building large dataset...\n")
	large := exper.SharedDataset(exper.ScaleLarge, seed)
	cfg := fusion.PopAccuConfig()
	largeClaims := fusion.Claims(large.Extractions, cfg.Granularity)
	benchFusePair(&out, "LargeScaleFusion", largeClaims, cfg, true)

	// Claim-graph compilation itself, sequential vs all cores: the parallel
	// CSR build and shard-and-merge interning only engage past their size
	// thresholds and with GOMAXPROCS > 1, so the pair quantifies the
	// parallel build on this box.
	fmt.Fprintf(os.Stderr, "benchmarking Compile (%d claims)...\n", len(largeClaims))
	out.Benchmarks["CompileSequential"] = measure(float64(len(largeClaims)), func() {
		if _, err := fusion.CompileWorkers(largeClaims, 1, 0); err != nil {
			panic(err)
		}
	})
	out.Benchmarks["CompileParallel"] = measure(float64(len(largeClaims)), func() {
		if _, err := fusion.CompileWorkers(largeClaims, 0, 0); err != nil {
			panic(err)
		}
	})
	return writeBenchFile(path, out)
}

func writeBenchFile(path string, out benchFile) error {
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// writeScalingJSON measures the deterministically-parallel hot paths at the
// current GOMAXPROCS and writes one scaling cell. Worker bounds are left at
// 0 (= GOMAXPROCS) everywhere, so the matrix environment is the only thing
// that varies across cells; results are bit-identical across cells by the
// forced-worker determinism contract, making claims/s the only signal.
//
//   - TwoLayerParallel: the two-layer EM loops (both E-steps, both M-step
//     passes) over a prebuilt extraction graph — isolates the per-round
//     parallel loops from compilation. Since the batched-kernel
//     restructuring this is also the matrix's view of the mathx passes:
//     the per-round tables, the hoisted layer-1 base and the block softmax
//     all run inside it.
//   - TwoLayerParallelFast: the same loops on the mathx.Fast polynomial
//     kernels (Config.FastMath); reported but not gated — it shows how the
//     approximation's win scales with cores.
//   - CompileParallel: claim-graph compilation on the large claim set
//     (shuffle, shard-and-merge interning, parallel CSR build), matching the
//     -benchjson record of the same name.
//   - ExtractCompileParallel: extraction-graph compilation on the bench
//     extraction set (shard-and-merge interning + parallel CSR and
//     ext→statement builds); reported but not gated — its ordered merge
//     bounds the achievable speedup on small key spaces.
func writeScalingJSON(path string, seed int64) error {
	probe, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	probe.Close()
	out := newBenchFile(seed)

	fmt.Fprintf(os.Stderr, "building bench dataset (GOMAXPROCS=%d)...\n", runtime.GOMAXPROCS(0))
	bench := exper.SharedDataset(exper.ScaleBench, seed)
	cfg := twolayer.DefaultConfig()
	cfg.SiteLevel = true
	g := bench.ExtractionGraph(true)
	n := float64(len(bench.Extractions))
	fmt.Fprintf(os.Stderr, "benchmarking TwoLayerParallel (%d extractions)...\n", len(bench.Extractions))
	out.Benchmarks["TwoLayerParallel"] = measure(n, func() {
		twolayer.MustFuseCompiled(g, cfg)
	})
	fastCfg := cfg
	fastCfg.FastMath = true
	fmt.Fprintf(os.Stderr, "benchmarking TwoLayerParallelFast...\n")
	out.Benchmarks["TwoLayerParallelFast"] = measure(n, func() {
		twolayer.MustFuseCompiled(g, fastCfg)
	})
	fmt.Fprintf(os.Stderr, "benchmarking ExtractCompileParallel...\n")
	out.Benchmarks["ExtractCompileParallel"] = measure(n, func() {
		extract.CompileWorkers(bench.Extractions, true, 0)
	})

	fmt.Fprintf(os.Stderr, "building large dataset...\n")
	large := exper.SharedDataset(exper.ScaleLarge, seed)
	largeClaims := fusion.Claims(large.Extractions, fusion.Granularity{})
	fmt.Fprintf(os.Stderr, "benchmarking CompileParallel (%d claims)...\n", len(largeClaims))
	out.Benchmarks["CompileParallel"] = measure(float64(len(largeClaims)), func() {
		if _, err := fusion.CompileWorkers(largeClaims, 0, 0); err != nil {
			panic(err)
		}
	})
	return writeBenchFile(path, out)
}

// scalingGated are the -scalingcheck records whose top-cell speedup must
// clear -minspeedup; other shared records are reported informationally.
var scalingGated = []string{"TwoLayerParallel", "CompileParallel"}

// runScalingCheck reads the -scaling cells, prints every record's claims/s
// per GOMAXPROCS, and enforces the gate: the highest-GOMAXPROCS cell must
// beat the 1-core cell by at least minSpeedup on every gated record. The
// cells come from one matrix run on one runner class but potentially
// different VMs, so absolute claims/s carry fleet variance (CPU generation,
// noisy neighbors); the default 1.5x threshold is deliberately conservative
// against the 2-3x these paths show on a quiet 4-core box, absorbing that
// variance while still catching parallelism regressing into overhead.
func runScalingCheck(filesCSV string, minSpeedup float64) error {
	var cells []benchFile
	for _, path := range strings.Split(filesCSV, ",") {
		raw, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		var cell benchFile
		if err := json.Unmarshal(raw, &cell); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		cells = append(cells, cell)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].GOMAXPROCS < cells[j].GOMAXPROCS })
	base := -1
	for i := range cells {
		if cells[i].GOMAXPROCS == 1 {
			base = i
			break
		}
	}
	if base < 0 {
		return fmt.Errorf("no GOMAXPROCS=1 cell among %s; the speedup gate needs the 1-core baseline", filesCSV)
	}
	top := len(cells) - 1
	if cells[top].GOMAXPROCS <= 1 {
		return fmt.Errorf("no multi-core cell among %s; nothing to gate", filesCSV)
	}

	// A gated record that cannot be compared — missing from either end cell,
	// or with a non-positive baseline — must fail the gate, not skip it: a
	// stale binary or truncated artifact would otherwise turn the job into a
	// silent no-op.
	for _, name := range scalingGated {
		if rec, ok := cells[base].Benchmarks[name]; !ok || rec.ClaimsPerS <= 0 {
			return fmt.Errorf("gated record %s missing from the 1-core cell; regenerate the cells with -scaling", name)
		}
		if rec, ok := cells[top].Benchmarks[name]; !ok || rec.ClaimsPerS <= 0 {
			return fmt.Errorf("gated record %s missing from the %d-core cell; regenerate the cells with -scaling",
				name, cells[top].GOMAXPROCS)
		}
	}

	names := make([]string, 0, len(cells[base].Benchmarks))
	for name := range cells[base].Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("parallel scaling across GOMAXPROCS cells (gate: top cell >= %.2fx the 1-core cell)\n", minSpeedup)
	failures := 0
	for _, name := range names {
		baseRec := cells[base].Benchmarks[name]
		fmt.Printf("  %-24s", name)
		for _, cell := range cells {
			rec, ok := cell.Benchmarks[name]
			if !ok {
				fmt.Printf("  %d-core: missing", cell.GOMAXPROCS)
				continue
			}
			fmt.Printf("  %d-core: %8.0f/s", cell.GOMAXPROCS, rec.ClaimsPerS)
		}
		topRec, ok := cells[top].Benchmarks[name]
		if !ok || baseRec.ClaimsPerS <= 0 {
			fmt.Printf("  (not comparable)\n")
			continue
		}
		speedup := topRec.ClaimsPerS / baseRec.ClaimsPerS
		status := ""
		if gated := slices.Contains(scalingGated, name); gated && speedup < minSpeedup {
			status = "  BELOW GATE"
			failures++
		}
		fmt.Printf("  speedup %.2fx%s\n", speedup, status)
	}
	if failures > 0 {
		return fmt.Errorf("%d gated record(s) scaled below %.2fx on %d cores", failures, minSpeedup, cells[top].GOMAXPROCS)
	}
	fmt.Println("scaling gate passed")
	return nil
}

// checkPairs are the (fast path, reference path) benchmark pairs the -check
// gate re-measures. All run on the bench dataset only, so the gate stays
// minutes-fast; the large-scale records in BENCH_<n>.json remain a manual,
// per-PR measurement.
var checkPairs = [][2]string{
	{"FusePopAccu", "ReferenceFusePopAccu"},
	{"ConfigSweepReuse", "ConfigSweepRecompile"},
	{"TwoLayerFuse", "ReferenceTwoLayerFuse"},
	{"AppendFusePopAccu", "RecompileFusePopAccu"},
	{"TwoLayerAppend", "TwoLayerRecompile"},
	{"WarmBootRestore", "WarmBootRecompile"},
}

// gainGated are the records whose committed claims/s must beat the -prior
// file's by -mingain — the ISSUE 10 acceptance bar: the batched kernel
// restructuring must hold ≥1.5× single-core throughput over the BENCH_5
// baselines. Both sides of the comparison are committed files recorded on
// the same reference box, so the gate is a deterministic file check, not a
// re-measurement subject to CI runner speed.
var gainGated = []string{"FusePopAccu", "TwoLayerFuseReuse"}

// checkGain enforces the committed-vs-prior throughput gate over gainGated.
func checkGain(baseline benchFile, baselinePath, priorPath string, minGain float64) error {
	raw, err := os.ReadFile(priorPath)
	if err != nil {
		return err
	}
	var prior benchFile
	if err := json.Unmarshal(raw, &prior); err != nil {
		return fmt.Errorf("parsing %s: %w", priorPath, err)
	}
	for _, name := range gainGated {
		p, ok := prior.Benchmarks[name]
		if !ok || p.ClaimsPerS <= 0 {
			return fmt.Errorf("gained record %s missing from prior %s", name, priorPath)
		}
		b, ok := baseline.Benchmarks[name]
		if !ok || b.ClaimsPerS <= 0 {
			return fmt.Errorf("gained record %s missing from baseline %s", name, baselinePath)
		}
		gain := b.ClaimsPerS / p.ClaimsPerS
		status := "ok      "
		if gain < minGain {
			status = "BELOW GATE"
		}
		fmt.Printf("  %s %-22s %.0f claims/s vs prior %.0f — gain %.2fx (gate %.2fx)\n",
			status, name, b.ClaimsPerS, p.ClaimsPerS, gain, minGain)
		if gain < minGain {
			return fmt.Errorf("%s: committed %.0f claims/s is only %.2fx the prior %s's %.0f (gate %.2fx)",
				name, b.ClaimsPerS, gain, priorPath, p.ClaimsPerS, minGain)
		}
	}
	return nil
}

// runCheck is the CI bench-regression gate: re-measure each checkPairs entry,
// compare its fresh claims/s speedup ratio (fast / reference) against the
// committed baseline's ratio, and fail when any pair lost more than tol of
// its speedup. Ratios cancel absolute machine speed, so the gate is stable
// across heterogeneous CI runners while still catching a compiled path
// regressing toward its reference engine. With priorPath set, it first runs
// the deterministic committed-vs-prior gain gate (checkGain) before paying
// for any measurement.
func runCheck(baselinePath, freshPath string, tol float64, seed int64, priorPath string, minGain float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline benchFile
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	// Refuse a baseline the gate cannot check against — a renamed or
	// stripped record set would otherwise turn the gate into a silent no-op
	// — and refuse before paying for the dataset build and measurements.
	comparable := 0
	for _, pair := range checkPairs {
		if bs, ok := baseline.Benchmarks[pair[1]]; ok && bs.ClaimsPerS > 0 {
			if bf, ok := baseline.Benchmarks[pair[0]]; ok && bf.ClaimsPerS > 0 {
				comparable++
			}
		}
	}
	if comparable == 0 {
		return fmt.Errorf("%s holds none of the benchmark pairs the gate checks; regenerate it with -benchjson", baselinePath)
	}
	if baseline.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		fmt.Fprintf(os.Stderr, "warning: baseline recorded at GOMAXPROCS=%d but this run has %d; "+
			"speedup ratios cancel scalar machine speed, not parallel scaling — pin GOMAXPROCS to match the baseline\n",
			baseline.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}

	if priorPath != "" {
		fmt.Printf("committed throughput gain gate: %s vs prior %s\n", baselinePath, priorPath)
		if err := checkGain(baseline, baselinePath, priorPath, minGain); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "building bench dataset...\n")
	bench := exper.SharedDataset(exper.ScaleBench, seed)
	fresh := newBenchFile(seed)
	cfg := fusion.PopAccuConfig()
	benchFusePair(&fresh, "FusePopAccu", fusion.Claims(bench.Extractions, cfg.Granularity), cfg, true)
	benchConfigSweep(&fresh, bench)
	benchTwoLayer(&fresh, bench)
	benchAppend(&fresh, bench)
	benchWarmBoot(&fresh, bench)

	fmt.Printf("bench-regression check vs %s (baseline: %s, GOMAXPROCS=%d; tolerance %.0f%%)\n",
		baselinePath, baseline.Date, baseline.GOMAXPROCS, tol*100)
	regressions := 0
	for _, pair := range checkPairs {
		fast, slow := pair[0], pair[1]
		bf, okf := baseline.Benchmarks[fast]
		bs, oks := baseline.Benchmarks[slow]
		if !okf || !oks || bf.ClaimsPerS <= 0 || bs.ClaimsPerS <= 0 {
			fmt.Printf("  skip     %-22s (pair missing from baseline)\n", fast)
			continue
		}
		baseRatio := bf.ClaimsPerS / bs.ClaimsPerS
		nf, ns := fresh.Benchmarks[fast], fresh.Benchmarks[slow]
		// A pair the fresh pass failed to measure is a programming error in
		// checkPairs vs the measurement set; without this guard the ratio
		// would be NaN, which never compares as regressed.
		if nf.ClaimsPerS <= 0 || ns.ClaimsPerS <= 0 {
			return fmt.Errorf("pair %s/%s in checkPairs was not measured by the fresh pass", fast, slow)
		}
		newRatio := nf.ClaimsPerS / ns.ClaimsPerS
		status := "ok      "
		if newRatio < baseRatio*(1-tol) {
			status = "REGRESSED"
			regressions++
		}
		fmt.Printf("  %s %-22s speedup %5.2fx vs baseline %5.2fx  (%.0f claims/s vs ref %.0f)\n",
			status, fast+"/"+slow, newRatio, baseRatio, nf.ClaimsPerS, ns.ClaimsPerS)
	}
	// The serve-latency record is absolute (machine-dependent), so its gate
	// is structural: the baseline must carry a clean, well-formed record at
	// the required concurrency. Baselines predating the serve record (BENCH_7
	// and older) pass with a note so -check stays usable against history.
	if baseline.Serve != nil {
		if err := checkServeRecord(baseline.Serve); err != nil {
			return fmt.Errorf("serve record gate: %w", err)
		}
		fmt.Printf("  ok       serve record: %d clients, p50 %.3fms p95 %.3fms p99 %.3fms, %.0f req/s\n",
			baseline.Serve.Clients, baseline.Serve.P50Ms, baseline.Serve.P95Ms, baseline.Serve.P99Ms, baseline.Serve.RPS)
	} else {
		fmt.Println("  note     baseline has no serve record (predates -serve)")
	}
	// The sharded-fusion record is likewise absolute, so its baseline gate is
	// structural — but shard-count independence is machine-free, so the gate
	// re-verifies it live at bench scale: a K-shard coordinator must still
	// reproduce the unsharded engine within RefTol. Baselines predating the
	// record (BENCH_8 and older) pass with a note.
	if baseline.Sharded != nil {
		if err := checkShardedRecord(baseline.Sharded); err != nil {
			return fmt.Errorf("sharded record gate: %w", err)
		}
		diff, err := shardedEquivDiff(bench, baseline.Sharded.EquivShards)
		if err != nil {
			return fmt.Errorf("live sharded equivalence (K=%d): %w", baseline.Sharded.EquivShards, err)
		}
		if diff > twolayer.RefTol {
			return fmt.Errorf("live sharded equivalence (K=%d): max abs diff %.3g exceeds RefTol %.0g",
				baseline.Sharded.EquivShards, diff, twolayer.RefTol)
		}
		fmt.Printf("  ok       sharded record: %d claims over %d shards (max shard %.1f%%), "+
			"append %.0f fuse %.0f claims/s; live K=%d equivalence diff %.3g\n",
			baseline.Sharded.Claims, baseline.Sharded.Shards, baseline.Sharded.MaxShardShare*100,
			baseline.Sharded.AppendClaimsPerS, baseline.Sharded.FuseClaimsPerS,
			baseline.Sharded.EquivShards, diff)
	} else {
		fmt.Println("  note     baseline has no sharded record (predates -sharded)")
	}
	if freshPath != "" {
		if err := writeBenchFile(freshPath, fresh); err != nil {
			return err
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d benchmark pair(s) regressed more than %.0f%%", regressions, tol*100)
	}
	fmt.Println("no regressions")
	return nil
}
