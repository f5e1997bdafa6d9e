package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

// fusedFile writes a small fused knowledge base, rows deliberately out of
// subject order, through kfio.WriteFused — the writer kfuse uses.
func fusedFile(t *testing.T) (path string, raw []byte) {
	t.Helper()
	row := func(s, p string, o kb.Object, prob float64, provs, exts int) fusion.FusedTriple {
		return fusion.FusedTriple{
			Triple:      kb.Triple{Subject: kb.EntityID(s), Predicate: kb.PredicateID(p), Object: o},
			Probability: prob, Predicted: prob >= 0, Provenances: provs, Extractors: exts,
		}
	}
	res := &fusion.Result{Triples: []fusion.FusedTriple{
		row("/m/b", "/p/x", kb.StringObject("v1"), 0.25, 1, 1),
		row("/m/a", "/p/y", kb.StringObject("z"), 0.9, 3, 2),
		row("/m/a", "/p/x", kb.StringObject("abc"), 0.5, 1, 1),
		row("/m/c", "/p/z", kb.EntityObject("/m/a"), -1, 1, 1),
		row("/m/a", "/p/x", kb.NumberObject(7), 0.75, 2, 1),
	}}
	var buf bytes.Buffer
	if err := kfio.WriteFused(&buf, res); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, buf.Bytes()), buf.Bytes()
}

func writeFile(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fused.jsonl")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// query runs kfquery and returns what it printed.
func query(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("kfquery %v: %v", args, err)
	}
	return out.String()
}

// line is one printed result row.
func line(prob, triple string, provs, exts int) string {
	return fmt.Sprintf("%s  %-70s provs=%d exts=%d\n", prob, triple, provs, exts)
}

func TestStats(t *testing.T) {
	path, _ := fusedFile(t)
	want := "triples:    5\nsubjects:   3\npredicates: 3\npredicted:  4 (80.0%)\n"
	if got := query(t, "-in", path, "-stats"); got != want {
		t.Errorf("-stats printed\n%s\nwant\n%s", got, want)
	}
}

func TestSubject(t *testing.T) {
	path, _ := fusedFile(t)
	want := line("0.750", "(/m/a, /p/x, n:7)", 2, 1) +
		line("0.500", "(/m/a, /p/x, s:abc)", 1, 1) +
		line("0.900", "(/m/a, /p/y, s:z)", 3, 2)
	if got := query(t, "-in", path, "-subject", "/m/a"); got != want {
		t.Errorf("-subject /m/a printed\n%s\nwant\n%s", got, want)
	}
	if got := query(t, "-in", path, "-subject", "/m/a", "-limit", "1"); got != line("0.750", "(/m/a, /p/x, n:7)", 2, 1)+"... (2 more)\n" {
		t.Errorf("-subject /m/a -limit 1 printed\n%s", got)
	}
	if got := query(t, "-in", path, "-subject", "/m/nope"); got != "no triples for subject /m/nope\n" {
		t.Errorf("-subject miss printed %q", got)
	}
}

func TestMinProb(t *testing.T) {
	path, _ := fusedFile(t)
	// Unpredicted rows never match, whatever the threshold.
	want := line("0.750", "(/m/a, /p/x, n:7)", 2, 1) +
		line("0.500", "(/m/a, /p/x, s:abc)", 1, 1) +
		"... (2 more)\n"
	if got := query(t, "-in", path, "-min-prob", "0", "-limit", "2"); got != want {
		t.Errorf("-min-prob 0 -limit 2 printed\n%s\nwant\n%s", got, want)
	}
	want = line("0.750", "(/m/a, /p/x, n:7)", 2, 1) + line("0.900", "(/m/a, /p/y, s:z)", 3, 2)
	if got := query(t, "-in", path, "-min-prob", "0.7"); got != want {
		t.Errorf("-min-prob 0.7 printed\n%s\nwant\n%s", got, want)
	}
}

// TestDamagedFile: a torn final line and a malformed line are errors naming
// their byte offset, and nothing is printed as a result.
func TestDamagedFile(t *testing.T) {
	_, raw := fusedFile(t)
	lastStart := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	secondStart := bytes.IndexByte(raw, '\n') + 1
	secondEnd := secondStart + bytes.IndexByte(raw[secondStart:], '\n')
	malformed := append(append(append([]byte(nil), raw[:secondStart]...), `{"s":"/m/a",`...), raw[secondEnd:]...)

	for _, tc := range []struct {
		name   string
		data   []byte
		offset int
	}{
		{"torn final line", raw[:len(raw)-5], lastStart},
		{"torn at the newline", raw[:len(raw)-1], lastStart},
		{"malformed line", malformed, secondStart},
	} {
		path := writeFile(t, tc.data)
		for _, q := range [][]string{{"-stats"}, {"-subject", "/m/a"}, {"-min-prob", "0"}} {
			var out bytes.Buffer
			err := run(append([]string{"-in", path}, q...), &out)
			if err == nil {
				t.Fatalf("%s %v: no error", tc.name, q)
			}
			if out.Len() > 0 {
				t.Errorf("%s %v: printed %q before failing", tc.name, q, out.String())
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d", tc.offset)) {
				t.Errorf("%s %v: error %q does not name byte offset %d", tc.name, q, err, tc.offset)
			}
			var partial *kfio.ErrPartialLine
			if torn := strings.HasPrefix(tc.name, "torn"); errors.As(err, &partial) != torn {
				t.Errorf("%s %v: errors.As(*kfio.ErrPartialLine) = %v, want %v", tc.name, q, !torn, torn)
			} else if torn && partial.Offset != int64(tc.offset) {
				t.Errorf("%s %v: partial line at %d, want %d", tc.name, q, partial.Offset, tc.offset)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	path, _ := fusedFile(t)
	if err := run([]string{"-in", path}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "nothing to do") {
		t.Errorf("no query flag: error %v, want nothing to do", err)
	}
	missing := filepath.Join(t.TempDir(), "absent.jsonl")
	if err := run([]string{"-in", missing, "-stats"}, &bytes.Buffer{}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: error %v, want fs.ErrNotExist", err)
	}
	// A negative -limit is refused, as /v1/triples refuses a negative limit,
	// and nothing is printed.
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-min-prob", "0", "-limit", "-1"}, &out); err == nil || !strings.Contains(err.Error(), "-limit") {
		t.Errorf("-limit -1: error %v, want a -limit error", err)
	}
	if out.Len() > 0 {
		t.Errorf("-limit -1 printed %q", out.String())
	}
}
