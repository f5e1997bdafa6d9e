// Command kfuse runs knowledge fusion over a JSONL extraction corpus and
// writes fused triples with truthfulness probabilities.
//
// Usage:
//
//	kfuse -in extractions.jsonl -out fused.jsonl -method popaccu+ -gold gold.jsonl
//	kfuse -in feed.jsonl -append -chunk 50000 -method popaccu
//
// Methods: vote, accu, popaccu, popaccu+unsup, popaccu+ (the last requires
// -gold for accuracy initialization), twolayer, ltm.
//
// -append streams the input in -chunk-sized batches over ONE growing
// compiled graph: the first chunk compiles, every later chunk appends
// (incrementally interning only what is new — bit-identical to recompiling
// the whole feed), and each chunk's fusion warm-starts from the previous
// chunk's posteriors, so re-fusing after a batch costs a fraction of a cold
// run. The final output covers the entire feed. Supported for every method
// except ltm.
//
// -state DIR makes -append durable: every batch is journaled before it is
// applied and the compiled graph is snapshotted at the end of the run, so a
// crashed or killed run resumes exactly where it left off — the restarted
// chain produces byte-identical fused output to an uninterrupted run.
//
// -shards K partitions the corpus by data item into K self-contained graphs
// fused in lockstep with deterministic cross-shard merges (internal/shard):
// each shard compiles, appends and fuses in bounded memory, which is what
// holds a web-scale feed. K=1 is bit-identical to the unsharded pipeline;
// K>1 agrees within the documented RefTol. With -append -state the state
// directory holds one generation store per shard (DIR/shard-000 …); sharded
// durable state supports the claim-layer methods (for twolayer, -shards
// runs in memory only). See docs/OPERATIONS.md for the recovery ladder and
// its one sharded caveat (the warm chain restarts from the last snapshot).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/kbstore"
	"kfusion/internal/kfio"
	"kfusion/internal/multitruth"
	"kfusion/internal/shard"
	"kfusion/internal/twolayer"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kfuse: ")
	var (
		in      = flag.String("in", "extractions.jsonl", "extraction input file")
		out     = flag.String("out", "fused.jsonl", "fused output file")
		method  = flag.String("method", "popaccu", "vote | accu | popaccu | popaccu+unsup | popaccu+ | twolayer | ltm")
		goldIn  = flag.String("gold", "", "gold labels (required for popaccu+)")
		gran    = flag.String("granularity", "", "url | site | site-pred | site-pred-pattern (default: method preset)")
		rounds  = flag.Int("rounds", 0, "override round cap R")
		theta   = flag.Float64("theta", -1, "override accuracy threshold θ")
		sampleL = flag.Int("L", 0, "override per-reducer sample cap L")
		quiet   = flag.Bool("q", false, "suppress the summary")
		workers = flag.Int("workers", 0, "MapReduce workers (0 = all cores)")
		kbOut   = flag.String("kb", "", "also persist the fused KB to this kbstore file")
		appendM = flag.Bool("append", false, "stream the input in chunks over one growing graph (incremental compile + warm-start fusion)")
		chunk   = flag.Int("chunk", 100000, "with -append: extractions per chunk")
		state   = flag.String("state", "", "with -append: durable state directory (journal + snapshots; a restarted run resumes from it)")
		shards  = flag.Int("shards", 1, "partition the corpus by data item into K lockstep-fused graphs (1 = unsharded)")
	)
	flag.Parse()

	if *appendM && *chunk <= 0 {
		log.Fatalf("-chunk must be positive, got %d", *chunk)
	}
	if *state != "" && !*appendM {
		log.Fatal("-state requires -append")
	}
	if *shards < 1 {
		log.Fatalf("-shards must be >= 1, got %d", *shards)
	}

	var xs []extract.Extraction
	if !*appendM {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		xs, err = kfio.ReadExtractions(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}

	var labeler fusion.Labeler
	if *goldIn != "" {
		g, err := os.Open(*goldIn)
		if err != nil {
			log.Fatal(err)
		}
		lb, n, err := kfio.ReadGold(g)
		g.Close()
		if err != nil {
			log.Fatal(err)
		}
		labeler = lb
		if !*quiet {
			fmt.Printf("gold labels: %d\n", n)
		}
	}

	// The §5 extension models have their own drivers.
	switch *method {
	case "twolayer":
		tcfg := twolayer.DefaultConfig()
		tcfg.SiteLevel = true
		tcfg.Workers = *workers
		if *rounds > 0 {
			tcfg.Rounds = *rounds
		}
		if *shards > 1 {
			if *state != "" {
				log.Fatal("-state with -shards supports the claim-layer methods only (twolayer state is not yet sharded)")
			}
			res, n := shardedTwoLayer(*in, xs, *appendM, *chunk, *shards, tcfg, *quiet)
			writeResult(res, *out, *kbOut, *quiet, *method, n)
			return
		}
		if *appendM {
			res, n := appendTwoLayer(*in, *chunk, tcfg, *quiet, *state)
			writeResult(res, *out, *kbOut, *quiet, *method, n)
			return
		}
		res, err := twolayer.Fuse(xs, tcfg)
		if err != nil {
			log.Fatal(err)
		}
		writeResult(res, *out, *kbOut, *quiet, *method, len(xs))
		return
	case "ltm":
		if *appendM {
			log.Fatal("-append is not supported with -method ltm")
		}
		if *shards > 1 {
			log.Fatal("-shards is not supported with -method ltm")
		}
		mcfg := multitruth.DefaultConfig()
		mcfg.Workers = *workers
		if *rounds > 0 {
			mcfg.Rounds = *rounds
		}
		compiled, err := fusion.CompileWorkers(fusion.Claims(xs, fusion.GranExtractorURL), *workers, 0)
		if err != nil {
			log.Fatal(err)
		}
		res, err := multitruth.FuseCompiled(compiled, mcfg)
		if err != nil {
			log.Fatal(err)
		}
		writeResult(res, *out, *kbOut, *quiet, *method, len(xs))
		return
	}

	var cfg fusion.Config
	switch *method {
	case "vote":
		cfg = fusion.VoteConfig()
	case "accu":
		cfg = fusion.AccuConfig()
	case "popaccu":
		cfg = fusion.PopAccuConfig()
	case "popaccu+unsup":
		cfg = fusion.PopAccuPlusUnsupConfig()
	case "popaccu+":
		if labeler == nil {
			log.Fatal("-method popaccu+ requires -gold")
		}
		cfg = fusion.PopAccuPlusConfig(labeler)
	default:
		log.Fatalf("unknown -method %q", *method)
	}

	switch *gran {
	case "":
	case "url":
		cfg.Granularity = fusion.GranExtractorURL
	case "site":
		cfg.Granularity = fusion.GranExtractorSite
	case "site-pred":
		cfg.Granularity = fusion.GranExtractorSitePred
	case "site-pred-pattern":
		cfg.Granularity = fusion.GranExtractorSitePredPattern
	default:
		log.Fatalf("unknown -granularity %q", *gran)
	}
	if *rounds > 0 {
		cfg.Rounds = *rounds
	}
	if *theta >= 0 {
		cfg.AccuracyThreshold = *theta
	}
	if *sampleL > 0 {
		cfg.SampleL = *sampleL
	}
	cfg.Workers = *workers

	if *shards > 1 {
		res, n := shardedFuse(*in, xs, *appendM, *chunk, *shards, cfg, *quiet, *state, *method)
		writeResult(res, *out, *kbOut, *quiet, *method, n)
		return
	}
	if *appendM {
		res, n := appendFuse(*in, *chunk, cfg, *quiet, *state, *method)
		writeResult(res, *out, *kbOut, *quiet, *method, n)
		return
	}

	claims := fusion.Claims(xs, cfg.Granularity)
	res, err := fusion.Fuse(claims, cfg)
	if err != nil {
		log.Fatal(err)
	}

	if !*quiet {
		fmt.Printf("method %s over %d extractions (%d claims at %s granularity)\n",
			*method, len(xs), len(claims), cfg.Granularity)
	}
	writeResult(res, *out, *kbOut, *quiet, *method, len(xs))
}

// shardedFuse is the -shards driver for the claim-layer methods. One-shot
// mode routes the loaded corpus through a K-shard coordinator; -append
// streams the feed in chunks, fusing after each with a warm start from the
// previous chunk's merged result. With -state the graphs persist in one
// generation store per shard (shard.Stores): batches journal before they
// apply, graphs snapshot at the end, and a restarted run resumes the graphs
// bit-identically — the warm chain itself restarts from the last snapshot's
// merged result (see docs/OPERATIONS.md).
func shardedFuse(in string, xs []extract.Extraction, appendM bool, chunk, k int,
	cfg fusion.Config, quiet bool, stateDir, method string) (*fusion.Result, int) {
	if !appendM {
		f, err := shard.NewFusion(k, cfg.Granularity)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Append(xs); err != nil {
			log.Fatal(err)
		}
		res, err := f.Fuse(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !quiet {
			fmt.Printf("method %s over %d extractions (%d claims at %s granularity, %d shards)\n",
				method, len(xs), f.NumClaims(), cfg.Granularity, k)
		}
		return res, len(xs)
	}

	if stateDir == "" {
		f, err := shard.NewFusion(k, cfg.Granularity)
		if err != nil {
			log.Fatal(err)
		}
		var prev *fusion.Result
		n := streamChunks(in, chunk, 0, false, func(batch []extract.Extraction) error {
			t0 := time.Now()
			if err := f.Append(batch); err != nil {
				return err
			}
			res, err := f.FuseWarm(cfg, prev)
			if err != nil {
				return err
			}
			prev = res
			if !quiet {
				fmt.Printf("chunk: +%d extractions -> %d claims, %d triples, %d rounds (%d shards, %v)\n",
					len(batch), f.NumClaims(), len(res.Triples), res.Rounds, k, time.Since(t0).Round(time.Millisecond))
			}
			return nil
		})
		if prev == nil {
			log.Fatal("no extractions fused: input is empty or ends mid-record before its first complete chunk")
		}
		return prev, n
	}

	// Durable sharded chain: the apply function rebuilds each shard's graph
	// (live appends and journal replay run the identical code); fusion is
	// coordinator-level, outside the per-shard apply.
	streams := make(map[*genstore.State]*fusion.ClaimStream)
	apply := func(st *genstore.State, batch []extract.Extraction) error {
		stream := streams[st]
		if stream == nil {
			if st.Claim != nil {
				stream = fusion.SeedClaimStream(cfg.Granularity, st.Claim)
			} else {
				stream = fusion.NewClaimStream(cfg.Granularity)
			}
			streams[st] = stream
		}
		claims := stream.Add(batch)
		if st.Claim == nil {
			st.Claim = fusion.MustCompile(claims)
		} else {
			st.Claim = st.Claim.MustAppend(claims)
		}
		st.Method = method
		st.Gran = cfg.Granularity
		return nil
	}
	stores, states, err := shard.OpenStores(stateDir, k, apply)
	if err != nil {
		log.Fatal(err)
	}
	defer stores.Close()
	for _, d := range stores.Degradations() {
		log.Printf("state recovery: %s", d)
	}
	for s, st := range states {
		if st.Method != "" && st.Method != method {
			log.Fatalf("shard %d state holds method %q, running %q", s, st.Method, method)
		}
		if st.Claim != nil && st.Gran != cfg.Granularity {
			log.Fatalf("shard %d state holds granularity %s, running %s", s, st.Gran, cfg.Granularity)
		}
	}
	prev := states[0].Result // persisted merged result, the warm seed
	graphs := func() []*fusion.Compiled {
		gs := make([]*fusion.Compiled, k)
		for s, st := range states {
			gs[s] = st.Claim
		}
		return gs
	}
	fused := false
	streamChunks(in, chunk, shard.Consumed(states), true, func(batch []extract.Extraction) error {
		t0 := time.Now()
		if err := stores.Append(states, batch); err != nil {
			return err
		}
		res, err := shard.FuseShards(graphs(), cfg, prev)
		if err != nil {
			return err
		}
		prev = res
		fused = true
		if !quiet {
			fmt.Printf("chunk %d: +%d extractions -> %d triples, %d rounds (%d shards, %v)\n",
				states[0].Batches-1, len(batch), len(res.Triples), res.Rounds, k, time.Since(t0).Round(time.Millisecond))
		}
		return nil
	})
	if prev != nil && !fused && staleResult(prev, graphs()) {
		// Crash window: journal replay advanced the graphs past the last
		// snapshot's merged result and the feed brought nothing new to
		// trigger a fuse. Re-fuse so the output covers the replayed batches;
		// a clean rerun (counts agree) reuses the stored result byte-for-byte.
		res, err := shard.FuseShards(graphs(), cfg, prev)
		if err != nil {
			log.Fatal(err)
		}
		prev = res
	}
	if prev == nil {
		log.Fatal("no extractions fused: input is empty or ends mid-record before its first complete chunk")
	}
	states[0].Result = prev
	if err := stores.Snapshot(states); err != nil {
		log.Fatal(err)
	}
	return prev, shard.Consumed(states)
}

// staleResult reports whether a persisted merged result no longer covers the
// recovered graphs — the signature of a crash after journaled appends but
// before the end-of-run snapshot. Triple and provenance counts only grow, so
// a mismatch is conclusive; equality can in principle miss a replayed batch
// of purely duplicate-shape claims, which perturbs accuracies but not the
// covered sets.
func staleResult(res *fusion.Result, graphs []*fusion.Compiled) bool {
	triples, provs := 0, make(map[string]bool, len(res.ProvAccuracy))
	for _, g := range graphs {
		if g == nil {
			continue
		}
		triples += g.NumTriples()
		for p := 0; p < g.NumProvenances(); p++ {
			provs[g.ProvKey(p)] = true
		}
	}
	return triples != len(res.Triples) || len(provs) != len(res.ProvAccuracy)
}

// shardedTwoLayer is the -shards driver for the §5.1 two-layer model
// (in-memory: sharded two-layer state persistence is not yet supported).
func shardedTwoLayer(in string, xs []extract.Extraction, appendM bool, chunk, k int,
	cfg twolayer.Config, quiet bool) (*fusion.Result, int) {
	tl, err := shard.NewTwoLayer(k, cfg.SiteLevel)
	if err != nil {
		log.Fatal(err)
	}
	if !appendM {
		tl.Append(xs)
		res, _, err := tl.Fuse(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !quiet {
			fmt.Printf("method twolayer over %d extractions (%d statements, %d shards)\n",
				len(xs), tl.NumStatements(), k)
		}
		return res, len(xs)
	}
	var res *fusion.Result
	var warm *twolayer.State
	n := streamChunks(in, chunk, 0, false, func(batch []extract.Extraction) error {
		t0 := time.Now()
		tl.Append(batch)
		r, st, err := tl.FuseWarm(cfg, warm)
		if err != nil {
			return err
		}
		res, warm = r, st
		if !quiet {
			fmt.Printf("chunk: +%d extractions -> %d statements, %d triples, %d rounds (%d shards, %v)\n",
				len(batch), tl.NumStatements(), len(r.Triples), r.Rounds, k, time.Since(t0).Round(time.Millisecond))
		}
		return nil
	})
	if res == nil {
		log.Fatal("no extractions fused: input is empty or ends mid-record before its first complete chunk")
	}
	return res, n
}

// streamChunks is the one chunked-feed loop: it reads the feed in
// chunk-sized batches, skipping the first skip records (already consumed by
// a resumed state), and hands each batch to fn. A partial final line — a
// producer appending right now — ends the run cleanly. What happens to the
// complete records before it depends on durability: a durable chain defers
// them to the next run rather than applying a short batch (warm-start fusion
// is sensitive to batch boundaries, so keeping the consumed count
// chunk-aligned is what makes a resumed chain byte-identical to one that
// read the finished feed in one go); an in-memory run has no next run to
// defer to and fuses them. It returns the total records consumed including
// the skipped prefix.
func streamChunks(in string, chunk, skip int, durable bool, fn func([]extract.Extraction) error) int {
	f, err := os.Open(in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r := kfio.NewExtractionReader(f)
	for i := 0; i < skip; i++ {
		if _, err := r.Next(); err != nil {
			log.Fatalf("state has consumed %d records but the feed ends after %d: %v", skip, i, err)
		}
	}
	consumed := skip
	for {
		batch, rerr := r.ReadBatch(chunk)
		var partial *kfio.ErrPartialLine
		isPartial := errors.As(rerr, &partial)
		if rerr != nil && !errors.Is(rerr, io.EOF) && !isPartial {
			log.Fatal(rerr)
		}
		deferring := isPartial && durable && len(batch) > 0
		if len(batch) > 0 && !deferring {
			if err := fn(batch); err != nil {
				log.Fatal(err)
			}
			consumed += len(batch)
		}
		if isPartial {
			if deferring {
				log.Printf("feed ends mid-record at byte %d; deferring %d complete records so the next run re-chunks them identically",
					partial.Offset, len(batch))
			}
			log.Printf("stopping after %d complete records (rerun to pick up the rest)", consumed)
			return consumed
		}
		if errors.Is(rerr, io.EOF) {
			return consumed
		}
	}
}

// appendFuse is the streaming driver for the single-truth methods: chunks
// flatten through one ClaimStream (cross-batch dedup), compile once, append
// per chunk, and every chunk's fusion warm-starts from the previous chunk's
// provenance accuracies. With a state directory the same apply chain runs
// through the generation store, which journals each batch before applying
// it and snapshots the graph at the end.
func appendFuse(in string, chunk int, cfg fusion.Config, quiet bool, stateDir, method string) (*fusion.Result, int) {
	var stream *fusion.ClaimStream
	apply := func(st *genstore.State, batch []extract.Extraction) error {
		if stream == nil {
			if st.Claim != nil {
				stream = fusion.SeedClaimStream(cfg.Granularity, st.Claim)
			} else {
				stream = fusion.NewClaimStream(cfg.Granularity)
			}
		}
		claims := stream.Add(batch)
		if st.Claim == nil {
			st.Claim = fusion.MustCompile(claims)
		} else {
			st.Claim = st.Claim.MustAppend(claims)
		}
		res, err := st.Claim.FuseWarm(cfg, st.Result)
		if err != nil {
			return err
		}
		st.Method = method
		st.Gran = cfg.Granularity
		st.Result = res
		return nil
	}
	progress := func(st *genstore.State, added int, elapsed time.Duration) {
		if !quiet {
			fmt.Printf("chunk %d: +%d extractions -> %d claims, %d triples, %d rounds (%v)\n",
				st.Batches-1, added, st.Claim.NumClaims(), len(st.Result.Triples), st.Result.Rounds,
				elapsed.Round(time.Millisecond))
		}
	}
	check := func(st *genstore.State) {
		if st.Method != "" && st.Method != method {
			log.Fatalf("state directory holds method %q, running %q", st.Method, method)
		}
		if st.Claim != nil && st.Gran != cfg.Granularity {
			log.Fatalf("state directory holds granularity %s, running %s", st.Gran, cfg.Granularity)
		}
	}
	return runAppend(in, chunk, stateDir, apply, check, progress)
}

// appendTwoLayer is the streaming driver for the §5.1 two-layer model: the
// extraction graph grows by Append per chunk and each chunk's EM
// warm-starts from the previous chunk's source accuracies and extractor
// rates.
func appendTwoLayer(in string, chunk int, cfg twolayer.Config, quiet bool, stateDir string) (*fusion.Result, int) {
	apply := func(st *genstore.State, batch []extract.Extraction) error {
		if st.Ext == nil {
			st.Ext = extract.Compile(batch, cfg.SiteLevel)
		} else {
			st.Ext = st.Ext.Append(batch)
		}
		res, tl, err := twolayer.FuseCompiledWarm(st.Ext, cfg, st.TL)
		if err != nil {
			return err
		}
		st.Method = "twolayer"
		st.SiteLevel = cfg.SiteLevel
		st.Result = res
		st.TL = tl
		return nil
	}
	progress := func(st *genstore.State, added int, elapsed time.Duration) {
		if !quiet {
			fmt.Printf("chunk %d: +%d extractions -> %d statements, %d triples, %d rounds (%v)\n",
				st.Batches-1, added, st.Ext.NumStatements(), len(st.Result.Triples), st.Result.Rounds,
				elapsed.Round(time.Millisecond))
		}
	}
	check := func(st *genstore.State) {
		if st.Method != "" && st.Method != "twolayer" {
			log.Fatalf("state directory holds method %q, running %q", st.Method, "twolayer")
		}
		if st.Ext != nil && st.SiteLevel != cfg.SiteLevel {
			log.Fatalf("state directory holds site-level=%v, running site-level=%v", st.SiteLevel, cfg.SiteLevel)
		}
	}
	return runAppend(in, chunk, stateDir, apply, check, progress)
}

// runAppend is the shared unsharded append chain. With stateDir it opens (or
// resumes) a generation store, reports any recovery degradations, skips the
// feed records the recovered state already consumed, and journals each new
// batch before applying; without it the apply chain runs in memory only.
func runAppend(in string, chunk int, stateDir string, apply genstore.ApplyFunc,
	check func(*genstore.State), progress func(*genstore.State, int, time.Duration)) (*fusion.Result, int) {
	var store *genstore.Store
	st := &genstore.State{}
	if stateDir != "" {
		var err error
		store, st, err = genstore.Open(stateDir, apply)
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		for _, d := range store.Degradations() {
			log.Printf("state recovery: %s", d)
		}
		check(st)
	}
	streamChunks(in, chunk, st.Consumed, store != nil, func(batch []extract.Extraction) error {
		t0 := time.Now()
		if store != nil {
			if err := store.Append(st, batch); err != nil {
				return err
			}
		} else {
			if err := apply(st, batch); err != nil {
				return err
			}
			st.Batches++
			st.Consumed += len(batch)
		}
		progress(st, len(batch), time.Since(t0))
		return nil
	})
	if store != nil {
		if err := store.Snapshot(st); err != nil {
			log.Fatal(err)
		}
	}
	if st.Result == nil {
		log.Fatal("no extractions fused: input is empty or ends mid-record before its first complete chunk")
	}
	return st.Result, st.Consumed
}

// writeResult persists the fused output as JSONL and optionally as a kbstore
// snapshot.
func writeResult(res *fusion.Result, out, kbOut string, quiet bool, method string, nExtractions int) {
	o, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := kfio.WriteFused(o, res); err != nil {
		log.Fatal(err)
	}
	if err := o.Close(); err != nil {
		log.Fatal(err)
	}
	if kbOut != "" {
		if err := kbstore.Write(kbOut, res.Triples); err != nil {
			log.Fatal(err)
		}
	}
	if !quiet {
		fmt.Printf("fused %d unique triples in %d rounds (%d without probability) -> %s\n",
			len(res.Triples), res.Rounds, res.Unpredicted, out)
		if kbOut != "" {
			fmt.Printf("knowledge base snapshot -> %s\n", kbOut)
		}
	}
}
