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
// Every method except ltm runs the one append chain the daemon also runs
// (genstore.Chain: flatten → compile-or-append → cold-or-warm fuse): batch
// mode feeds it the whole input as a single chunk, -append streams the input
// in -chunk-sized batches over ONE growing compiled graph — the first chunk
// compiles, every later chunk appends (incrementally interning only what is
// new — bit-identical to recompiling the whole feed), and each chunk's
// fusion warm-starts from the previous chunk's posteriors, so re-fusing
// after a batch costs a fraction of a cold run. The final output covers the
// entire feed.
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
// K>1 agrees within the documented RefTol. K is a parameter of the one
// chain, so every K runs the same path, and with -append -state the state
// directory is one generation store whatever K (it records K and refuses to
// be reopened at another). Durable sharded state supports the claim-layer
// methods; for twolayer, -shards runs in memory only. See docs/OPERATIONS.md
// for the recovery ladder.
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
	"kfusion/internal/kfio"
	"kfusion/internal/multitruth"
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
		workers = flag.Int("workers", 0, "worker goroutines (0 = all cores)")
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

	j := &job{in: *in, shards: *shards, stateDir: *state, quiet: *quiet, method: *method}
	if *appendM {
		j.chunk = *chunk
	}
	switch *method {
	case "twolayer":
		tcfg := twolayer.DefaultConfig()
		tcfg.SiteLevel = true
		tcfg.Workers = *workers
		if *rounds > 0 {
			tcfg.Rounds = *rounds
		}
		if *shards > 1 && *state != "" {
			log.Fatal("-state with -shards supports the claim-layer methods only (twolayer state is not yet sharded)")
		}
		j.twoLayer = &tcfg
	case "ltm":
		// The §5.3 multi-truth model has its own one-shot driver.
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
		compiled := fusion.CompileExtractions(readFeed(*in), fusion.GranExtractorURL, *workers)
		res, err := multitruth.FuseCompiled(compiled, mcfg)
		if err != nil {
			log.Fatal(err)
		}
		writeResult(res, *out, *quiet)
		return
	case "popaccu+":
		if labeler == nil {
			log.Fatal("-method popaccu+ requires -gold")
		}
		j.claim = fusion.PopAccuPlusConfig(labeler)
	default:
		cfg, err := fusion.Preset(*method)
		if err != nil {
			log.Fatalf("unknown -method %q", *method)
		}
		j.claim = cfg
	}
	if j.twoLayer == nil {
		if *gran != "" {
			g, err := fusion.ParseGranularity(*gran)
			if err != nil {
				log.Fatalf("unknown -granularity %q", *gran)
			}
			j.claim.Granularity = g
		}
		if *rounds > 0 {
			j.claim.Rounds = *rounds
		}
		if *theta >= 0 {
			j.claim.AccuracyThreshold = *theta
		}
		if *sampleL > 0 {
			j.claim.SampleL = *sampleL
		}
		j.claim.Workers = *workers
	}

	res, _ := j.run()
	writeResult(res, *out, *quiet)
}

// job is one kfuse run: a feed, a method binding, and where the chain lives
// (one graph or K shards, in memory or in a state directory).
type job struct {
	in string
	// chunk is the -append batch size; 0 is batch mode, the whole feed read
	// as the chain's single chunk (first chunk = cold compile + cold fuse).
	chunk    int
	shards   int
	stateDir string
	quiet    bool

	method   string
	claim    fusion.Config    // the claim-layer methods
	twoLayer *twolayer.Config // non-nil selects the §5.1 two-layer model
}

// chain is the job's append chain over its K shards: the full configuration
// on every chunk, each warm-started from the previous chunk's result.
func (j *job) chain() *genstore.Chain {
	if j.twoLayer != nil {
		return genstore.TwoLayerChain(*j.twoLayer, 0, j.shards)
	}
	return genstore.ClaimChain(j.method, j.claim, 0, j.shards)
}

// run streams the feed through the job's append chain and returns the fused
// result over everything consumed, with the consumed record count. With a
// state directory it opens (or resumes) a generation store, reports any
// recovery degradations, skips the feed records the recovered state already
// consumed, journals each new batch before applying it and snapshots at the
// end; without one the same chain runs in memory only.
func (j *job) run() (*fusion.Result, int) {
	chain := j.chain()
	var store *genstore.Store
	st := &genstore.State{}
	if j.stateDir != "" {
		var err error
		store, st, err = genstore.Open(j.stateDir, chain.Apply)
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		for _, d := range store.Degradations() {
			log.Printf("state recovery: %s", d)
		}
		if err := chain.Check(st); err != nil {
			log.Fatalf("state directory: %v", err)
		}
	}
	j.streamChunks(st.Consumed, store != nil, func(batch []extract.Extraction) (progress, error) {
		if store != nil {
			if err := store.Append(st, batch); err != nil {
				return progress{}, err
			}
		} else {
			if err := chain.Apply(st, batch); err != nil {
				return progress{}, err
			}
			st.Batches++
			st.Consumed += len(batch)
		}
		// The chain leaves the posterior in its native form; a chunk's
		// progress line needs its size, rounds and moves, not its rows.
		p := st.Posterior
		return progress{triples: p.Len(), rounds: p.Rounds, moves: p.Moves, size: chainSize(st)}, nil
	})
	// The final snapshot stores the posterior; the exchange form is
	// materialised once, after the last chunk, for the caller to write out.
	if store != nil {
		if err := store.Snapshot(st); err != nil {
			log.Fatal(err)
		}
	}
	res := st.Fused()
	if res == nil {
		log.Fatal("no extractions fused: input is empty or ends mid-record before its first complete chunk")
	}
	return res, st.Consumed
}

// chainSize describes a state's graphs for a progress line.
func chainSize(st *genstore.State) string {
	switch {
	case st.Ext != nil:
		return fmt.Sprintf("%d statements", st.Ext.NumStatements())
	case st.Claim != nil:
		return fmt.Sprintf("%d claims", st.Claim.NumClaims())
	case st.ExtShards != nil:
		return fmt.Sprintf("%d statements over %d shards", st.ExtShards.NumStatements(), st.ExtShards.K())
	}
	return fmt.Sprintf("%d claims over %d shards", st.ClaimShards.NumClaims(), st.ClaimShards.K())
}

// readFeed loads a whole JSONL extraction file.
func readFeed(in string) []extract.Extraction {
	f, err := os.Open(in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	xs, err := kfio.ReadExtractions(f)
	if err != nil {
		log.Fatal(err)
	}
	return xs
}

// progress is what a chunk's step reports for its progress line: the fused
// posterior's row and round counts, its per-round largest parameter moves
// (the line shows the last, the one the convergence test stopped on; VOTE
// has none) and a note on the chain's size.
type progress struct {
	triples, rounds int
	moves           []float64
	size            string
}

// streamChunks is the one chunked-feed loop: it reads the feed in
// chunk-sized batches, skipping the first skip records (already consumed by
// a resumed state), hands each batch to step and prints step's progress. Batch mode (chunk 0)
// is the one-chunk case: the whole file, an unterminated final line
// included, is the single batch. A partial final line of a chunked feed — a
// producer appending right now — ends the run cleanly. What happens to the
// complete records before it depends on durability: a durable chain defers
// them to the next run rather than applying a short batch (warm-start fusion
// is sensitive to batch boundaries, so keeping the consumed count
// chunk-aligned is what makes a resumed chain byte-identical to one that
// read the finished feed in one go); an in-memory run has no next run to
// defer to and fuses them. It returns the total records consumed including
// the skipped prefix.
func (j *job) streamChunks(skip int, durable bool, step func([]extract.Extraction) (progress, error)) int {
	consumed, chunks := skip, 0
	apply := func(batch []extract.Extraction) {
		t0 := time.Now()
		p, err := step(batch)
		if err != nil {
			log.Fatal(err)
		}
		if !j.quiet {
			move := ""
			if n := len(p.moves); n > 0 {
				move = fmt.Sprintf(", last move %.3g", p.moves[n-1])
			}
			fmt.Printf("chunk %d: +%d extractions -> %s, %d triples, %d rounds%s (%v)\n",
				chunks, len(batch), p.size, p.triples, p.rounds, move, time.Since(t0).Round(time.Millisecond))
		}
		consumed += len(batch)
		chunks++
	}
	if j.chunk == 0 {
		apply(readFeed(j.in))
		return consumed
	}

	f, err := os.Open(j.in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r := kfio.NewExtractionReader(f)
	if n, err := r.Skip(skip); err != nil {
		log.Fatalf("state has consumed %d records but the feed ends after %d: %v", skip, n, err)
	}
	for {
		batch, rerr := r.ReadBatch(j.chunk)
		var partial *kfio.ErrPartialLine
		isPartial := errors.As(rerr, &partial)
		if rerr != nil && !errors.Is(rerr, io.EOF) && !isPartial {
			log.Fatal(rerr)
		}
		deferring := isPartial && durable && len(batch) > 0
		if len(batch) > 0 && !deferring {
			apply(batch)
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

// writeResult writes the fused output as JSONL — the fused knowledge base
// kfquery and kfeval read — through a temporary file renamed over out, so
// an interrupted run never leaves a torn file under the final name.
func writeResult(res *fusion.Result, out string, quiet bool) {
	if err := kfio.AtomicWriteFile(out, func(w io.Writer) error { return kfio.WriteFused(w, res) }); err != nil {
		log.Fatal(err)
	}
	if !quiet {
		fmt.Printf("fused %d unique triples in %d rounds (%d without probability) -> %s\n",
			len(res.Triples), res.Rounds, res.Unpredicted, out)
	}
}
