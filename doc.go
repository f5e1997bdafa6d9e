// Package kfusion is a from-scratch reproduction of "From Data Fusion to
// Knowledge Fusion" (Dong et al., PVLDB 7(10), 2014) — the Google Knowledge
// Vault line of work on estimating a calibrated probability of truth for
// every (subject, predicate, object) triple extracted from the Web by a
// fleet of information extractors.
//
// The package exposes four layers:
//
//   - Knowledge synthesis. Because the paper's corpus (1B+ Web pages, 12
//     proprietary extractors, Freebase) is not available, kfusion generates
//     a statistically faithful synthetic substitute: a typed ground-truth
//     world, a crawled Web corpus in four content forms (TXT, DOM, TBL,
//     ANO), twelve simulated extractors with the paper's three extraction
//     error classes, and an incomplete Freebase snapshot for the LCWA gold
//     standard. See Synthesize.
//
//   - Knowledge fusion. VOTE, ACCU and POPACCU adapted to the
//     three-dimensional (data item × source × extractor) input, with the
//     paper's refinements: provenance granularity, coverage and accuracy
//     filtering, and gold-standard accuracy initialization. See Fuse and
//     the preset constructors (VOTE, ACCU, POPACCU, POPACCUPlus...).
//     Fuse compiles the claim set once into an interned, CSR-indexed claim
//     graph and then iterates allocation-free flat loops, so EM rounds cost
//     no shuffles — roughly an order of magnitude faster than the literal
//     regroup-per-round pipeline, which internal/fusion retains as a golden
//     reference engine (the bench-dataset equivalence test holds the ratio
//     to a floor; PRs 1-10's records are in docs/perf-history.json). The
//     compiled graph is itself a reusable artifact: Compile once, then fuse
//     any number of configurations over the shared CompiledClaims handle — multi-config
//     sweeps amortize the compilation and stay bit-identical to
//     compile-per-config runs. Synthesized Datasets do this automatically,
//     caching one compiled graph per provenance granularity. The same
//     compile-once architecture extends down to the extraction layer: the
//     §5.1 two-layer model (internal/twolayer) rides an interned extraction
//     graph — sources, extractors, (source, triple) statement pairs and
//     candidate triples as dense IDs with CSR adjacency — shared through
//     the Dataset the way the claim graph is, with its original map-keyed
//     engine kept as a golden reference. Every hot path is deterministic, and
//     parallel where that pays: the claim graph interns shard-and-merge on
//     four or more workers (the extraction graph in one sequential loop), CSR
//     adjacency builds with a parallel counting sort (internal/csr), and the
//     two-layer EM's float reductions use fixed-size blocks folded with a
//     pairwise tree shaped only by the data (csr.SpanBlocks/csr.Pairwise) —
//     so results are bit-identical for any worker count, pinned by
//     forced-worker property tests. (The block re-grouping costs a documented
//     <= 1e-9 tolerance against the two-layer reference engine; see
//     internal/twolayer.) The transcendental math is batched the same way:
//     internal/mathx holds the log/log-odds/log-ratio/softmax kernels the EM
//     hot loops call in single passes over staging buffers. They are bit-identical to the
//     historical scalar math.Exp/math.Log calls and pure elementwise
//     functions, so results stay bit-identical across worker and shard
//     counts.
//
//     The compile pipeline is append-capable: the paper's Web is crawled
//     continuously, so extraction feeds grow rather than recompile. Both
//     compiled graphs are generations of an append-only feed — every ID
//     space is interned in first-occurrence order, so Append(batch)
//     extends a graph bit-identically to recompiling the concatenated
//     stream (existing IDs never move) while hashing only the batch
//     against the retained interning index; the CSR spans merge through
//     csr.AppendByGroup's ordered span merge. Along a chain of generations
//     the columns that only grow at the end (keys, per-claim and
//     per-statement IDs, claim confidences) are shared: the index extends them in place and
//     each generation holds the cap-clipped prefix of its own length, so
//     an append costs the batch plus bulk moves of the CSRs, never a copy
//     of the prefix, and older generations stay readable while the chain
//     grows. Compile is the first Append
//     — the empty generation extended by the whole set, through the same
//     interning loop and assemble tail — so the equality holds by
//     construction and is pinned by golden graph digests, brute-force
//     reconstruction and chunking fuzz targets. Re-fusing warm-starts from the previous generation's
//     posteriors (CompiledClaims.FuseWarm, TwoLayerFuseCompiledWarm): on
//     threshold-converging data that lands within a documented pointwise
//     tolerance of cold start, and under the paper's forced round cap it
//     runs as online EM — one warm round per batch — matching the cold
//     R=5 recompile's evaluation quality within documented WDev/AUC-PR
//     bounds at a fraction of the cost (BenchmarkAppendBatch; ~5x on a 10%
//     batch). CompiledClaims.AppendExtractions carries the claim dedup
//     across batches in the graph's own intern tables, kfio streams JSONL chunks (extraction records
//     through a decoder specialised to their schema that interns repeated
//     field values, with encoding/json as the per-line fallback and the
//     test reference), and `kfuse -append` drives the whole streaming
//     pipeline.
//
//     The streaming pipeline is durable. internal/genstore persists
//     compiled graph generations to a checksummed, versioned snapshot file
//     (atomic temp+fsync+rename, two generations retained) and journals
//     every extraction batch — length-prefixed, CRC32C-checked — BEFORE it
//     is applied, so a crash anywhere loses nothing: reopen loads the
//     newest valid snapshot and replays the journal through the same apply
//     chain, and by the append contract the recovered state is
//     bit-identical to the uncrashed run's. Corruption degrades gracefully
//     and is reported, never fatal: a bad snapshot falls back to the
//     previous one (the journal retains its replay suffix), then to an
//     empty state and a full feed re-read. `kfuse -append -state DIR`
//     drives it end to end — a killed run restarted with the same flags
//     produces byte-identical fused output. The crash model is pinned by property tests over internal/faultfs
//     failpoints (torn writes, torn renames, bit flips, truncation):
//     recovery after a crash at every injected I/O step must reproduce the
//     uncrashed state exactly (`make fault`), and corruption-facing
//     decoders are fuzzed from truncated/bit-flipped seed corpora
//     (`make fuzz-smoke`).
//
//     Past the single compiled graph lies the paper's actual scale: §4
//     fuses 1.6B triples with a three-stage MapReduce in which data items
//     are independent everywhere except the per-provenance accuracy
//     re-estimation. internal/shard is that decomposition in-process:
//     extractions route to shards by DataItem hash (ShardOf), each shard
//     owns a self-contained compiled graph built in bounded memory, and a
//     coordinator (NewShardedFusion, NewShardedTwoLayer)
//     hands the K graphs and its cross-shard ID tables to the engine's one
//     EM round driver — the same loop Fuse and FuseTwoLayer run over a
//     single graph — which steps the shards in lockstep, folding
//     cross-shard M-step partials with the same fixed pairwise tree as the
//     in-graph block reductions. K=1 is therefore the same code as the
//     unsharded engines (bit-identical); K>1 agrees within the documented
//     tolerance (pinned by shard-count-independence property tests). A
//     durable sharded run (`kfuse -shards K -state DIR`) is one genstore
//     store whose append chain carries K, and `go run ./benchmark
//     -segments 47` streams a 10M-record feed through the same workloads.
//
//     Performance is judged end to end by the benchmark/ program against
//     BENCHMARK.json (`make bench-e2e`). CI adds what it cannot see — the
//     compiled ÷ reference speed floors inside the bench-dataset
//     equivalence tests and the 4-core tests (TestFourCoreScaling,
//     TestFourCoreFeedCompile) —
//     beside a fault-injection + fuzz-smoke job and a race-detector job on
//     every push.
//
//   - Evaluation. Calibration curves with deviation and weighted deviation,
//     PR curves with AUC-PR, kappa correlation between extractors, and a
//     mechanical error analysis that attributes false positives/negatives
//     to the paper's Figure 17 categories. See Evaluate and AnalyzeErrors.
//
//   - Experiments. Every table and figure of the paper's evaluation section
//     can be regenerated; see the Experiments function, the cmd/kfexper
//     tool and the repository benchmarks.
//
// # Serving
//
// cmd/kfserved turns the streaming pipeline into a long-running service: a
// daemon that owns a genstore state directory and serves fused posteriors
// over a versioned JSON API, with a typed Go client (kfusion/client) that
// shares every wire shape with the server through one contract package.
// The routes:
//
//	GET  /healthz        liveness (up as soon as the process listens)
//	GET  /readyz         readiness (503 until hydration completes)
//	GET  /v1/status      generation counters and method binding
//	GET  /v1/items/{id}  fused posteriors of one data item ({id} is the
//	                     path-escaped "subject#predicate"; ServeItemPath
//	                     builds it)
//	GET  /v1/triples     fused posteriors filtered by subject, predicate,
//	                     min_prob and limit
//	POST /v1/append      journal + apply one extraction batch
//
// Generation visibility: the current generation is an immutable view behind
// one atomic pointer. Readers never lock and resolve entirely against the
// view they loaded; an append journals the batch (the durability point),
// extends the compiled graph incrementally, re-fuses with one warm EM round,
// and publishes the new generation with a single pointer swap. Appends are
// single-writer — a concurrent append is rejected with ErrBusy (409), never
// queued. Served probabilities are bit-for-bit the in-process fusion output:
// encoding/json's shortest-form float64 rendering round-trips exact bits
// (pinned by test).
//
// Restart contract: restart is genstore recovery, never a recompile. The
// daemon reopens the state directory, loads the newest valid snapshot,
// replays the journal through the same apply chain, and serves — by the
// append contract — the identical generation a crashed process had, even
// when the kill landed mid-append (the journal holds every acknowledged
// batch). Graceful shutdown drains in-flight requests, then writes a final
// snapshot. Failures cross the wire typed: the client rebuilds ErrNotFound,
// ErrBadBatch, ErrNotReady, ErrBusy and ErrBadRequest from the response
// code, so errors.Is works across the process boundary.
//
// # Package surface
//
// The root package is a facade of type aliases over internal/...; external
// callers never import internal packages. The surface is split by layer:
//
//	api_kb.go      triple model: Triple, Object, DataItem, Store
//	api_synth.go   synthesis: World, Corpus, ExtractorSuite, Dataset, Synthesize
//	api_fusion.go  batch fusion: FuseConfig presets, CompiledClaims,
//	               granularities, shard routing (ShardOf)
//	api_stream.go  incremental fusion: CompileClaimFeed, Append/FuseWarm surface,
//	               two-layer model, sharded coordinators (ShardedFusion,
//	               ShardedTwoLayer)
//	api_eval.go    evaluation and experiments: Evaluate, Reports, Experiments
//	api_serve.go   serving: Server, Client, wire DTOs, typed Err* sentinels
//
// # Static contracts
//
// The invariants above are load-bearing but easy to violate in a way no
// unit test notices until the wrong machine or worker count runs it, so the
// repo machine-checks them: internal/lint is a go/analysis-style analyzer
// suite (stdlib-only; see the package docs for why x/tools is not a
// dependency) driven by cmd/kflint (`make lint`, `kflint ./...`, or
// `go vet -vettool=kflint`), and the internal/lint self-test runs the same
// gated suite inside `go test ./...`. Five analyzers, each born from a bug
// (or a hot loop) an earlier PR fixed:
//
//   - kflint/mapiter — deterministic iteration. In the compiled engines and
//     the published-numbers layers, `range` over a map is flagged unless the
//     body is provably order-insensitive. Established when the seed two-layer
//     EM's map-order float accumulation made converged probabilities differ
//     run to run (the PR that introduced sorted extractor slices).
//
//   - kflint/floatsum — fixed-shape float reductions. A float total over
//     slice data must come from the block reduction
//     (csr.SpanBlocks + csr.Pairwise), not an ad-hoc `+=` loop; elementwise,
//     in-block, and per-group-partial shapes are recognized as within
//     contract. Established with the worker-invariant parallel EM work.
//
//   - kflint/scalarmath — batched transcendentals. In the EM engine
//     packages (fusion, twolayer, multitruth), a per-element math.Exp or
//     math.Log inside a loop is flagged: per-round transcendentals belong
//     in one internal/mathx kernel pass over a staging buffer, the
//     vectorizable shape the engines' throughput comes from. The golden
//     reference engines suppress it with reasons — their inline scalar
//     forms ARE the spec the kernels are measured against. Established
//     with the batched-kernel restructuring.
//
//   - kflint/typederr — wrap-safe error dispatch. The durability sentinels
//     (genstore ErrCorrupt/ErrVersion, kfio's *ErrPartialLine) and
//     the serving sentinels (httpapi ErrNotFound/ErrBadBatch/ErrNotReady/
//     ErrBusy/ErrBadRequest, re-exported at the root) are always wrapped by
//     producers, so `==`, identity switches, and concrete type assertions
//     on them are flagged anywhere in the tree: use errors.Is / errors.As.
//     Established with the durable generation store.
//
//   - kflint/atomicwrite — atomic durable writes. Inside the store packages,
//     direct os.Create/os.WriteFile/os.Rename bypass the temp+fsync+rename
//     protocol and the faultfs crash-injection seam; write through
//     kfio.AtomicWriteFile or the faultfs.FS the store owns. Established
//     with the crash-recovery property suite.
//
// Suppression policy: a finding is silenced only by
// `//lint:ignore kflint/<name> <reason>` on or directly above the flagged
// line. The reason is mandatory and reviewed like code (a reasonless or
// unknown-analyzer directive is itself a finding); the existing suppressions
// document why each site is order-insensitive or outside the durability
// contract, and the golden expectations for all of this live in
// internal/lint/testdata.
//
// # Further reading
//
// Two prose documents complement this reference: docs/ARCHITECTURE.md is
// the package map — what each internal package owns, which contract it
// carries, how the layers compose — and docs/OPERATIONS.md is the
// operator's view — state directory layout, the crash-recovery ladder,
// the kfserved serving contract, sharded-state caveats. Every package and
// symbol reference in both (and in README.md) resolves with `go doc`,
// enforced in CI by scripts/check-docs.sh (`make docs-check`). Runnable
// examples of each workflow live in example_test.go, longer walkthroughs in
// example_walkthrough_test.go, and both run under `go test ./...`.
//
// A minimal end-to-end run:
//
//	ds := kfusion.Synthesize(kfusion.ScaleSmall, 42)
//	res := ds.Fuse("popaccu+", kfusion.POPACCUPlus(ds.Gold.Labeler()))
//	rep := kfusion.Evaluate("POPACCU+", res, ds.Gold)
//	fmt.Printf("WDev=%.4f AUC-PR=%.4f\n", rep.WDev, rep.AUCPR)
package kfusion
