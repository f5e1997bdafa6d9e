package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
	"kfusion/internal/twolayer"
)

func testFeed(n int) []extract.Extraction {
	rng := rand.New(rand.NewSource(5))
	xs := make([]extract.Extraction, n)
	for i := range xs {
		site := fmt.Sprintf("site%d", rng.Intn(5))
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(30))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(4))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(5))),
			},
			Extractor:  fmt.Sprintf("E%d", rng.Intn(4)),
			Pattern:    fmt.Sprintf("pat%d", rng.Intn(2)),
			URL:        fmt.Sprintf("http://%s/page%d", site, rng.Intn(6)),
			Site:       site,
			Confidence: -1,
		}
	}
	return xs
}

// writeFeed writes xs as JSONL; torn cuts the final record mid-line, the
// state a concurrent producer leaves behind.
func writeFeed(t *testing.T, path string, xs []extract.Extraction, torn bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := kfio.WriteExtractions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if torn {
		b = b[:len(b)-10]
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func fusedBytes(t *testing.T, res *fusion.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := kfio.WriteFused(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendTornFinalLine drives every -append path over a feed whose last
// line is torn. In memory — unsharded and sharded, claim-layer and two-layer
// — every complete record is fused (the sharded drivers used to drop the
// trailing short chunk). With -state the trailing records are deferred so the
// consumed count stays chunk-aligned, and the rerun over the finished feed
// resumes to output byte-identical to an uninterrupted run — over a feed
// whose already-consumed lines no longer parse, so the resume is shown to
// count them (ExtractionReader.Skip) rather than decode and discard them.
func TestAppendTornFinalLine(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	const n, chunk = 1000, 300 // 3 full chunks, then 99 complete records and a torn one
	xs := testFeed(n)
	dir := t.TempDir()
	torn, full := filepath.Join(dir, "torn.jsonl"), filepath.Join(dir, "full.jsonl")
	writeFeed(t, torn, xs, true)
	writeFeed(t, full, xs, false)

	cfg := fusion.PopAccuConfig()
	cfg.Rounds = 2
	tcfg := twolayer.DefaultConfig()
	tcfg.SiteLevel = true
	tcfg.Rounds = 2

	type appendRun func(in, stateDir string) (*fusion.Result, int)
	claim := func(k int) appendRun {
		return func(in, stateDir string) (*fusion.Result, int) {
			j := &job{in: in, chunk: chunk, shards: k, stateDir: stateDir, quiet: true, method: "popaccu", claim: cfg}
			return j.run()
		}
	}
	twoLayer := func(k int) appendRun {
		return func(in, stateDir string) (*fusion.Result, int) {
			j := &job{in: in, chunk: chunk, shards: k, stateDir: stateDir, quiet: true, method: "twolayer", twoLayer: &tcfg}
			return j.run()
		}
	}

	// In memory: the torn feed fuses exactly what the feed of its n-1
	// complete records does.
	complete := filepath.Join(dir, "complete.jsonl")
	writeFeed(t, complete, xs[:n-1], false)
	for name, run := range map[string]appendRun{
		"popaccu": claim(1), "popaccu/K=3": claim(3),
		"twolayer": twoLayer(1), "twolayer/K=3": twoLayer(3),
	} {
		want, _ := run(complete, "")
		got, consumed := run(torn, "")
		if consumed != n-1 {
			t.Errorf("%s in memory: consumed %d records, want all %d complete ones", name, consumed, n-1)
		}
		if !bytes.Equal(fusedBytes(t, got), fusedBytes(t, want)) {
			t.Errorf("%s in memory: torn feed fuses differently from its complete records", name)
		}
	}

	// The finished feed with its consumed prefix scrubbed: same line count,
	// nothing in the first n/chunk*chunk lines a parser would accept.
	fullBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(fullBytes, []byte("\n"))
	for i := 0; i < n/chunk*chunk; i++ {
		lines[i] = []byte("consumed\n")
	}
	scrubbed := filepath.Join(dir, "scrubbed.jsonl")
	if err := os.WriteFile(scrubbed, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	// Durable: defer the short chunk, then resume byte-identically.
	for name, run := range map[string]appendRun{
		"popaccu": claim(1), "popaccu/K=3": claim(3), "twolayer": twoLayer(1),
	} {
		state := filepath.Join(dir, "state-"+strings.ReplaceAll(name, "/", "-"))
		if _, consumed := run(torn, state); consumed != n/chunk*chunk {
			t.Errorf("%s durable: consumed %d records of the torn feed, want the %d chunk-aligned ones", name, consumed, n/chunk*chunk)
		}
		resumed, consumed := run(scrubbed, state)
		if consumed != n {
			t.Errorf("%s durable: resumed run consumed %d records, want %d", name, consumed, n)
		}
		clean, _ := run(full, state+"-clean")
		if !bytes.Equal(fusedBytes(t, resumed), fusedBytes(t, clean)) {
			t.Errorf("%s durable: resumed output differs from an uninterrupted run", name)
		}
	}
}
