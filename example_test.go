package kfusion_test

// Runnable examples for the root facade, executed (and output-checked) by
// `go test ./...`. Each one is the minimal form of a workflow the docs
// describe: batch fusion, compile-once reuse, streaming append with warm
// restarts, sharded fusion, and the durable serving loop.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"

	"kfusion"
)

// capitalClaims is the smallest corpus with a conflict: two provenances
// assert Paris, one asserts Lyon, on the same data item.
func capitalClaims() []kfusion.Claim {
	paris := kfusion.Triple{Subject: "france", Predicate: "capital", Object: kfusion.StringObject("Paris")}
	lyon := kfusion.Triple{Subject: "france", Predicate: "capital", Object: kfusion.StringObject("Lyon")}
	return []kfusion.Claim{
		{Triple: paris, Prov: "TXT1|a.example/1", Conf: -1},
		{Triple: paris, Prov: "TXT1|b.example/1", Conf: -1},
		{Triple: lyon, Prov: "TXT1|c.example/1", Conf: -1},
	}
}

// ExampleFuse runs the VOTE baseline over three conflicting claims: each
// value's probability is its share of the data item's provenances.
func ExampleFuse() {
	res, err := kfusion.Fuse(capitalClaims(), kfusion.VOTE())
	if err != nil {
		panic(err)
	}
	triples := append([]kfusion.FusedTriple(nil), res.Triples...)
	sort.Slice(triples, func(i, j int) bool { return triples[i].Probability > triples[j].Probability })
	for _, t := range triples {
		fmt.Printf("%s = %.2f\n", t.Triple.Object, t.Probability)
	}
	// Output:
	// s:Paris = 0.67
	// s:Lyon = 0.33
}

// ExampleCompile compiles a claim set once and fuses two configurations over
// the shared graph — the multi-config sweep pattern. The compiled graph is
// configuration-independent, so the second fuse pays no compilation.
func ExampleCompile() {
	g, err := kfusion.Compile(capitalClaims())
	if err != nil {
		panic(err)
	}
	vote, err := g.Fuse(kfusion.VOTE())
	if err != nil {
		panic(err)
	}
	accu, err := g.Fuse(kfusion.ACCU())
	if err != nil {
		panic(err)
	}
	fmt.Printf("claims=%d triples=%d\n", g.NumClaims(), g.NumTriples())
	fmt.Printf("VOTE rounds=%d ACCU rounds=%d\n", vote.Rounds, accu.Rounds)
	// Output:
	// claims=3 triples=2
	// VOTE rounds=1 ACCU rounds=3
}

// ExampleCompiledClaims_AppendExtractions grows a claim graph by appending a second
// extraction batch and re-fuses warm from the previous result — the streaming
// pipeline `kfuse -append` drives. The graph carries the (provenance, triple)
// dedup across batches, so the appended graph is bit-identical to compiling
// the whole feed at once.
func ExampleCompiledClaims_AppendExtractions() {
	xs := capitalExtractions()

	g := kfusion.CompileClaimFeed(xs[:2], kfusion.GranExtractorURL, 0)
	cold, err := g.Fuse(kfusion.POPACCU())
	if err != nil {
		panic(err)
	}
	g, err = g.AppendExtractions(xs[2:], kfusion.GranExtractorURL)
	if err != nil {
		panic(err)
	}
	warm, err := g.FuseWarm(kfusion.POPACCU(), cold)
	if err != nil {
		panic(err)
	}
	fmt.Printf("generation 1: %d claims, %d triples\n", 2, len(cold.Triples))
	fmt.Printf("generation 2: %d claims, %d triples\n", g.NumClaims(), len(warm.Triples))
	// Output:
	// generation 1: 2 claims, 2 triples
	// generation 2: 3 claims, 3 triples
}

// capitalExtractions is the extraction-layer form of the example corpus:
// three extraction records over two data items.
func capitalExtractions() []kfusion.Extraction {
	return []kfusion.Extraction{
		{Triple: kfusion.Triple{Subject: "france", Predicate: "capital", Object: kfusion.StringObject("Paris")},
			Extractor: "TXT1", URL: "a.example/1", Site: "a.example", Confidence: -1},
		{Triple: kfusion.Triple{Subject: "france", Predicate: "capital", Object: kfusion.StringObject("Lyon")},
			Extractor: "TXT1", URL: "b.example/1", Site: "b.example", Confidence: -1},
		{Triple: kfusion.Triple{Subject: "italy", Predicate: "capital", Object: kfusion.StringObject("Rome")},
			Extractor: "TXT1", URL: "a.example/1", Site: "a.example", Confidence: -1},
	}
}

// ExampleNewShardedFusion partitions a corpus by data item into two shards
// and fuses them in lockstep — the paper's MapReduce decomposition. The
// sharded result carries the same triples and probabilities as the unsharded
// engine (bit-identical at K=1, within RefTol for K>1).
func ExampleNewShardedFusion() {
	xs := capitalExtractions()
	sharded, err := kfusion.NewShardedFusion(2, kfusion.GranExtractorURL)
	if err != nil {
		panic(err)
	}
	if err := sharded.Append(xs); err != nil {
		panic(err)
	}
	res, err := sharded.Fuse(kfusion.VOTE())
	if err != nil {
		panic(err)
	}

	unsharded, err := kfusion.Fuse(kfusion.ClaimsFromExtractions(xs, kfusion.GranExtractorURL), kfusion.VOTE())
	if err != nil {
		panic(err)
	}
	fmt.Printf("shards=%d claims=%d triples=%d\n", sharded.K(), sharded.NumClaims(), len(res.Triples))
	fmt.Printf("matches unsharded: %v\n", len(res.Triples) == len(unsharded.Triples))
	// Output:
	// shards=2 claims=3 triples=3
	// matches unsharded: true
}

// ExampleNewServer runs the durable serving loop end to end: a server owning
// a genstore state directory, an append through the typed client, a restart,
// and the restart contract — the reopened server recovers the identical
// generation from its journal and snapshots.
func ExampleNewServer() {
	dir, err := os.MkdirTemp("", "kfserved-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	open := func() (*kfusion.Server, *httptest.Server) {
		srv, err := kfusion.NewServer(kfusion.ServerConfig{StateDir: dir, Method: "vote"})
		if err != nil {
			panic(err)
		}
		if err := srv.Hydrate(); err != nil {
			panic(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}

	srv, ts := open()
	c, err := kfusion.NewClient(ts.URL)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	batch := []kfusion.Extraction{
		{Triple: kfusion.Triple{Subject: "france", Predicate: "capital", Object: kfusion.StringObject("Paris")},
			Extractor: "TXT1", URL: "a.example/1", Site: "a.example", Confidence: -1},
	}
	if _, err := c.Append(ctx, batch); err != nil {
		panic(err)
	}
	item, err := c.Item(ctx, "france", "capital")
	if err != nil {
		panic(err)
	}
	fmt.Printf("before restart: %s = %.2f\n", item.Triples[0].Object, item.Triples[0].Probability)
	ts.Close()
	srv.Close()

	srv, ts = open() // restart = genstore recovery, never a recompile
	defer ts.Close()
	defer srv.Close()
	c, err = kfusion.NewClient(ts.URL)
	if err != nil {
		panic(err)
	}
	item, err = c.Item(ctx, "france", "capital")
	if err != nil {
		panic(err)
	}
	fmt.Printf("after restart:  %s = %.2f\n", item.Triples[0].Object, item.Triples[0].Probability)
	// Output:
	// before restart: s:Paris = 1.00
	// after restart:  s:Paris = 1.00
}
