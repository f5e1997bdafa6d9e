package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"kfusion/internal/exper"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

// feed is the generated input of one invocation: a JSONL extraction feed
// and the gold labels of its triples, plus what it cost to make them.
type feed struct {
	feedInfo
	path, gold      string
	synthS, encodeS float64
}

// feedRecords is the feed's length. A ScaleLarge dataset has 170k to 260k
// extractions depending on the seed, and append cost, state size and memory
// all follow the feed's size; cutting every seed's feed to the same length
// is what lets runs on different seeds be compared.
const feedRecords = 150_000

// synthFeed synthesises the dataset for seed and writes it into dir the way
// kfgen does. Segment 0 is a full dataset with gold; further segments
// (manual large runs) are independent crawl slices streamed after it, so
// generation memory stays bounded by one segment. Nothing is cached across
// invocations: set-up cost repeats, and is measured.
func synthFeed(dir string, scale exper.Scale, seed int64, segments int) (*feed, error) {
	fd := &feed{path: filepath.Join(dir, "feed.jsonl"), gold: filepath.Join(dir, "gold.jsonl")}
	out, err := os.Create(fd.path)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	hash := sha256.New()
	w := kfio.NewExtractionWriter(io.MultiWriter(out, hash))

	t := time.Now()
	ds := exper.NewDataset(scale, seed)
	fd.synthS = time.Since(t).Seconds()
	xs := ds.Extractions
	if segments == 1 && len(xs) > feedRecords {
		xs = xs[:feedRecords]
	}

	t = time.Now()
	if err := w.WriteBatch(xs); err != nil {
		return nil, err
	}
	triples := make([]kb.Triple, 0, len(xs))
	for _, x := range xs {
		triples = append(triples, x.Triple)
	}
	g, err := os.Create(fd.gold)
	if err != nil {
		return nil, err
	}
	if err := kfio.WriteGold(g, ds.Gold.Label, triples); err != nil {
		g.Close()
		return nil, err
	}
	if err := g.Close(); err != nil {
		return nil, err
	}
	fd.encodeS = time.Since(t).Seconds()

	for seg := 1; seg < segments; seg++ {
		t = time.Now()
		xs := exper.SegmentExtractions(seed, seg)
		fd.synthS += time.Since(t).Seconds()
		t = time.Now()
		if err := w.WriteBatch(xs); err != nil {
			return nil, err
		}
		fd.encodeS += time.Since(t).Seconds()
	}
	t = time.Now()
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, fmt.Errorf("close feed: %w", err)
	}
	fd.encodeS += time.Since(t).Seconds()
	fd.Records, fd.Bytes, fd.SHA256 = w.Count(), int64(fileSize(fd.path)), hex.EncodeToString(hash.Sum(nil))
	return fd, nil
}
