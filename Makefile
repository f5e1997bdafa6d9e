GO ?= go

.PHONY: verify build vet lint test repro race fault fuzz-smoke bench-smoke bench-e2e docs-check

# verify is the tier-1 gate: vet, build, full tests (the contract analyzers
# included — see lint), the seed-42 reproduction, and a 1-iteration
# benchmark smoke so perf-critical paths — synthesis included: every test
# and workload pays it first — cannot silently rot.
verify: vet build test repro bench-smoke docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the in-tree contract analyzers (internal/lint) alone, through
# their one driver, the TestRepoIsClean self-test, over every non-test file
# of the module: deterministic map iteration, fixed-block float reductions
# and batched transcendentals in the compiled engines, errors.Is/As on the
# durability sentinels, and the atomic temp+fsync+rename write protocol in
# the stores. A stale or reasonless //lint:ignore fails it too. It runs
# TestNoDeadExports too, on the same loaded packages: an exported name of an
# internal/ package that no product file reads fails unless the test's
# allowlist gives its reason, and a stale allowlist entry fails as a stale
# //lint:ignore does. `go test ./...` runs both tests, so verify does not
# list lint again.
lint:
	$(GO) test -count=1 -run '^(TestRepoIsClean|TestNoDeadExports)$$' ./internal/lint/

test:
	$(GO) test ./...

# repro regenerates every reproduced table and figure at bench scale, seed
# 42, and fails when any paper-shape check prints VIOLATED (kfexper exits 1).
repro:
	$(GO) run ./cmd/kfexper -scale bench >/dev/null

# race exercises the concurrent paths (the claim graph's intern ranges and
# their concurrent key folds, parallel CSR build, the twolayer/fusion EM stage
# loops, the lockstep skeleton both round drivers share — binding, stages and
# the merge over global IDs — with the two-layer driver's per-shard
# ghost-miss sums, the shard coordinators' side-by-side Append, the exper
# singleflight caches, the extraction reader's per-worker batch decode) under
# the race detector; CI runs it on every push, plus at -cpu 1,4 the shard
# fork tests, the skeleton's TestLockstep* tests, both engines'
# TestStepAPIMatchesFuse and fusion's TestShardEngineWorkers, the
# work-sharing scheduler's TestParallelChunks* tests and both engines'
# TestRepeatedFuseBitwise (20 fuses at Workers 4, where which worker runs
# which chunk of an EM loop changes from run to run), and the per-worker
# layer-1 memo's oracle (FuzzTwoLayerEngine's seeds) with the hit-list
# column's contract tests (TestHitListIDsNameLists, FuzzAppendChunking's
# seeds).
race:
	$(GO) test -race ./...

# fault runs the durability suite under the race detector: the genstore
# crash-consistency property sweep (recovery after a crash at every sampled
# I/O step is bit-identical to the uncrashed run, clean and torn-rename, for
# the one-graph chain and a K=3 sharded one), the degradation-ladder tests, and the faultfs crash model itself.
# It is for local use: CI's race job runs the same packages in its
# `go test -race ./...`.
fault:
	$(GO) test -race ./internal/genstore/ ./internal/faultfs/ ./internal/kfio/

# fuzz-smoke gives each fuzz target a short budget, short enough for every CI
# push: the corruption-facing ones, long enough to catch a decoder regression
# on mutated snapshot (K=1 and K=3 seeds)/journal/JSONL bytes (FuzzDecodeExtraction: the
# schema-specialised extraction decoder ≡ encoding/json, line by line), and
# the engine-level ones — any chunking of a feed through Append builds the
# graph one Compile builds, and a warm two-layer chain on recycled engines
# and revised E-steps equals, bit for bit, one on fresh engines
# (FuzzWarmChain), the compiled two-layer engine equals the reference
# within RefTol and itself at Workers 1/3/8 — cold, warm and over three
# shards, memo on and forced off — with every layer-1 E-step held bit for
# bit to its definition (FuzzTwoLayerEngine), and the K-shard coordinator's
# incrementally maintained ghost-extractor sets equal a full rebuild under
# any chunking (FuzzShardGhosts). The two append-era codecs run against the oracles kept in
# their test files: FuzzWriteFused (the fused-row encoder ≡ encoding/json,
# byte for byte) and FuzzAppendExtractions (the claim graph's ID-pair dedup ≡
# the string-keyed map, under any chunking and granularity, across a snapshot
# reload). And the generator
# every synthesized byte comes from: FuzzSourceMatchesMathRand (randx.Source ≡
# rand.New(rand.NewSource(seed)) under any script of draws and splits) and
# FuzzLabelResetMatchesSplit (a piecewise label hash ≡ Split/SplitN's seed, a
# Source reset over a used register ≡ New). And
# the open-addressed intern tables both graphs intern through:
# FuzzInternTable (csr.InternTable and csr.PairTable ≡ map[K]int32 under any
# key stream, size hint and a degenerate constant hash), and the cross-shard
# ID table built on it: FuzzIDTable (csr.IDTable ≡ a key map with
# insertion-sorted holder slices under any script of shard Extends). And the
# parsers every object, triple and gold line goes through: FuzzParseObject,
# FuzzParseTriple and FuzzReadGold.
# Each line caps input minimisation at 2 s: go test's default
# -fuzzminimizetime is 60s, so minimising the first new interesting input
# would otherwise eat the whole 15 s budget and the target would barely run.
# scripts/check-fuzz-smoke.sh runs first and fails when a fuzz target in any
# _test.go file has no line here.
fuzz-smoke:
	./scripts/check-fuzz-smoke.sh
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 15s -fuzzminimizetime 2s ./internal/genstore/
	$(GO) test -run '^$$' -fuzz FuzzJournalParse -fuzztime 15s -fuzzminimizetime 2s ./internal/genstore/
	$(GO) test -run '^$$' -fuzz FuzzExtractionStream -fuzztime 15s -fuzzminimizetime 2s ./internal/kfio/
	$(GO) test -run '^$$' -fuzz FuzzReadExtractions -fuzztime 15s -fuzzminimizetime 2s ./internal/kfio/
	$(GO) test -run '^$$' -fuzz FuzzDecodeExtraction -fuzztime 15s -fuzzminimizetime 2s ./internal/kfio/
	$(GO) test -run '^$$' -fuzz FuzzWriteFused -fuzztime 15s -fuzzminimizetime 2s ./internal/kfio/
	$(GO) test -run '^$$' -fuzz FuzzReadGold -fuzztime 15s -fuzzminimizetime 2s ./internal/kfio/
	$(GO) test -run '^$$' -fuzz FuzzParseObject -fuzztime 15s -fuzzminimizetime 2s ./internal/kb/
	$(GO) test -run '^$$' -fuzz FuzzParseTriple -fuzztime 15s -fuzzminimizetime 2s ./internal/kb/
	$(GO) test -run '^$$' -fuzz FuzzAppendChunking -fuzztime 15s -fuzzminimizetime 2s ./internal/extract/
	$(GO) test -run '^$$' -fuzz FuzzAppendChunking -fuzztime 15s -fuzzminimizetime 2s ./internal/fusion/
	$(GO) test -run '^$$' -fuzz FuzzAppendExtractions -fuzztime 15s -fuzzminimizetime 2s ./internal/fusion/
	$(GO) test -run '^$$' -fuzz FuzzClaimEngine -fuzztime 15s -fuzzminimizetime 2s ./internal/fusion/
	$(GO) test -run '^$$' -fuzz FuzzWarmChain -fuzztime 15s -fuzzminimizetime 2s ./internal/twolayer/
	$(GO) test -run '^$$' -fuzz FuzzTwoLayerEngine -fuzztime 15s -fuzzminimizetime 2s ./internal/twolayer/
	$(GO) test -run '^$$' -fuzz FuzzShardGhosts -fuzztime 15s -fuzzminimizetime 2s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzSourceMatchesMathRand -fuzztime 15s -fuzzminimizetime 2s ./internal/randx/
	$(GO) test -run '^$$' -fuzz FuzzLabelResetMatchesSplit -fuzztime 15s -fuzzminimizetime 2s ./internal/randx/
	$(GO) test -run '^$$' -fuzz FuzzInternTable -fuzztime 15s -fuzzminimizetime 2s ./internal/csr/
	$(GO) test -run '^$$' -fuzz FuzzIDTable -fuzztime 15s -fuzzminimizetime 2s ./internal/csr/

# bench-smoke runs each benchmark once. Its second line runs the feed reader
# again at one and at two procs, so both the one-goroutine decode and the
# per-worker split run on every push.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFusePopAccu$$|BenchmarkFuseReferencePopAccu$$|BenchmarkLargeScaleFusion$$|BenchmarkConfigSweep|BenchmarkTwoLayerFuse|BenchmarkTwoLayerScaling|BenchmarkClaimScaling|BenchmarkShardTwoLayerStep|BenchmarkShardFusionStep|BenchmarkExtractCompileGraph|BenchmarkCompileClaimGraph|BenchmarkAppendBatch|BenchmarkAppendChain|BenchmarkReadExtractions|BenchmarkCompileExtractions|BenchmarkWriteFused|BenchmarkServerAppend|BenchmarkWorldGeneration|BenchmarkCorpusGeneration|BenchmarkExtractionSuite|BenchmarkWriteExtractions|BenchmarkSourceSplitDraw' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkReadExtractions$$' -cpu 1,2 -benchtime 1x -benchmem .

# bench-e2e runs the end-to-end benchmark (benchmark/README.md): one feed
# from seed 42, four workloads from feed bytes to served posterior in fresh
# child processes — every output checked and digested — then the same
# suite traced for the per-layer table. Results land in benchmark/out/
# (git-ignored); compare two builds' result files with
# `go run ./benchmark -compare`.
bench-e2e:
	$(GO) run ./benchmark -seed 42 -trace 1

# docs-check resolves every package/symbol reference in README.md, docs/*.md
# and the verify skill with `go doc` (tests, fuzz targets and benchmarks by
# their declarations), failing on dangling references — the docs cannot
# silently outlive a rename.
docs-check:
	./scripts/check-docs.sh
