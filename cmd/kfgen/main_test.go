package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gen runs kfgen into a fresh directory and returns the feed and gold paths
// and what it printed.
func gen(t *testing.T, args ...string) (feed, gold, stdout string) {
	t.Helper()
	dir := t.TempDir()
	feed, gold = filepath.Join(dir, "feed.jsonl"), filepath.Join(dir, "gold.jsonl")
	var buf bytes.Buffer
	if err := run(append([]string{"-out", feed, "-gold", gold}, args...), &buf); err != nil {
		t.Fatalf("kfgen %v: %v", args, err)
	}
	return feed, gold, buf.String()
}

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSynthesisDigests pins the bytes kfgen writes. The digests were recorded
// before randx carried its own generator (ISSUE 23), so they hold the whole
// synthesis chain — world, corpus, the 12 extractors, gold labelling, the
// JSONL encoders — to math/rand's streams bit for bit. The large feed's is
// the SHA-256 `go run ./benchmark -seed 42` prints. A digest moves only with
// a deliberate change to what is synthesised, never with how fast.
func TestSynthesisDigests(t *testing.T) {
	cells := []struct {
		name       string
		args       []string
		feed, gold string
		long       bool
	}{
		{name: "small", args: []string{"-scale", "small"},
			feed: "91fcfd5c43c48237096950139c41a9456ea03693ec691f58d2d90c41ace7e6ab",
			gold: "123e2274ee4e845bdb1f070e6899733efc78a08643dabfb7a755063f1b31c6f0"},
		{name: "bench", args: []string{"-scale", "bench"},
			feed: "476a1998e1566ab97f97d66999f9e479d448d1777d865d556122cdae97e4a885",
			gold: "4e064e50781ab2c64a4579eca721708c0ca854db7ba3a5ca5a7cacd1f96533ee"},
		{name: "large-150k", args: []string{"-scale", "large", "-records", "150000"}, long: true,
			feed: "029a3ab305e7a9c7a8bc663ed07b1c3b5d35af8df15bdb50e2e4422def641779",
			gold: "b5cd083dcb52a7272621b5920a7a1b2ae08a76c0df9bd692d2e14f7cbcfa5012"},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("synthesises a ScaleLarge dataset")
			}
			feed, gold, _ := gen(t, append([]string{"-seed", "42", "-q"}, c.args...)...)
			if got := fileSHA256(t, feed); got != c.feed {
				t.Errorf("feed sha256 = %s, want %s", got, c.feed)
			}
			if got := fileSHA256(t, gold); got != c.gold {
				t.Errorf("gold sha256 = %s, want %s", got, c.gold)
			}
		})
	}
}

func TestRecordsCutsFeedAndGold(t *testing.T) {
	full, fullGold, _ := gen(t, "-scale", "small", "-seed", "7", "-q")
	cut, cutGold, stdout := gen(t, "-scale", "small", "-seed", "7", "-records", "100")
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(got, []byte("\n")); n != 100 {
		t.Fatalf("-records 100 wrote %d records", n)
	}
	if !bytes.HasPrefix(want, got) {
		t.Error("-records 100 is not the first 100 records of the uncut feed")
	}
	if !strings.Contains(stdout, "extractions: 100 (") {
		t.Errorf("summary does not report the cut feed:\n%s", stdout)
	}
	fg, _ := os.ReadFile(fullGold)
	cg, _ := os.ReadFile(cutGold)
	if len(cg) == 0 || len(cg) >= len(fg) || !bytes.HasPrefix(fg, cg) {
		t.Errorf("cut gold (%d bytes) is not a proper prefix of the full gold (%d bytes)", len(cg), len(fg))
	}

	// A cut longer than the dataset keeps all of it.
	over, _, _ := gen(t, "-scale", "small", "-seed", "7", "-records", "100000000", "-q")
	if fileSHA256(t, over) != fileSHA256(t, full) {
		t.Error("-records beyond the dataset changed the feed")
	}
}

func TestFlagErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "feed.jsonl")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "huge", "-out", out}, `unknown -scale "huge" (want small, bench or large)`},
		{[]string{"-records", "-1", "-out", out}, "-records must be >= 0, got -1"},
	} {
		err := run(c.args, io.Discard)
		if err == nil || err.Error() != c.want {
			t.Errorf("kfgen %v: error %v, want %q", c.args, err, c.want)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("kfgen %v left a feed behind", c.args)
		}
	}
}

// TestOutputIsReplacedAtomically: the feed is renamed into place, so nothing
// is left beside it and an existing file is replaced whole.
func TestOutputIsReplacedAtomically(t *testing.T) {
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.jsonl")
	if err := os.WriteFile(feed, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "small", "-records", "5", "-out", feed, "-q"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(feed)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("stale")) || bytes.Count(b, []byte("\n")) != 5 {
		t.Errorf("feed not replaced whole: %q", b)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Errorf("directory holds %d entries after the run, want the feed alone", len(names))
	}
}
