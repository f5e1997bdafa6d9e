package kfio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"kfusion/internal/extract"
)

// step is the outcome of one reader call: the records it returned, Skip's
// count, the error text and an *ErrPartialLine's offset (-1 for none).
type step struct {
	xs      []extract.Extraction
	skipped int
	err     string
	partial int64
}

// op is one reader call in a transcript script.
type op struct {
	kind byte // 'b' ReadBatch(n), 'n' Next, 's' Skip(n)
	n    int
}

// transcript runs script over feed, round after round, on a reader with the
// given worker count and split threshold (0 keeps splitMinLines), and
// records every call's outcome. It stops at io.EOF, at a sticky scanner
// error, or after a bound on the calls; a decode error does not stop it.
func transcript(feed []byte, workers, splitMin int, script []op) []step {
	r := NewExtractionReader(bytes.NewReader(feed))
	r.workers, r.splitMin = workers, splitMin
	var steps []step
	for call := 0; call < 1<<16; call++ {
		var s step
		var err error
		switch o := script[call%len(script)]; o.kind {
		case 'b':
			s.xs, err = r.ReadBatch(o.n)
		case 'n':
			var x extract.Extraction
			if x, err = r.Next(); err == nil {
				s.xs = []extract.Extraction{x}
			}
		case 's':
			s.skipped, err = r.Skip(o.n)
		}
		s.partial = -1
		if err != nil {
			s.err = err.Error()
		}
		var partial *ErrPartialLine
		if errors.As(err, &partial) {
			s.partial = partial.Offset
		}
		steps = append(steps, s)
		if err == io.EOF || r.sc.Err() != nil {
			break
		}
	}
	return steps
}

// sameTranscript reports the first difference between two transcripts.
func sameTranscript(a, b []step) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d calls, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].skipped != b[i].skipped || a[i].err != b[i].err || a[i].partial != b[i].partial || len(a[i].xs) != len(b[i].xs) {
			return fmt.Errorf("call %d: %d records, skipped %d, error %q, partial at %d; want %d, %d, %q, %d",
				i, len(b[i].xs), b[i].skipped, b[i].err, b[i].partial, len(a[i].xs), a[i].skipped, a[i].err, a[i].partial)
		}
		for j := range a[i].xs {
			if !sameExtraction(a[i].xs[j], b[i].xs[j]) {
				return fmt.Errorf("call %d, record %d: %+v, want %+v", i, j, b[i].xs[j], a[i].xs[j])
			}
		}
	}
	return nil
}

// TestReadBatchWorkerIndependence: at 2, 3 and 8 workers a reader returns,
// call for call, what the one-worker reader returns — records, error texts
// with their line numbers and offsets, partial-line offsets, Skip counts —
// for batch sizes on both sides of splitMinLines and Skip/Next/ReadBatch
// interleavings, on the bench feed and on feeds with fallback, blank, CRLF,
// over-long, torn and malformed lines. A malformed line sits first, on a
// range boundary and last; the feed with all of them must report the first.
func TestReadBatchWorkerIndependence(t *testing.T) {
	_, bench := benchFeed(t)

	const n = 3000
	var clean bytes.Buffer
	if err := WriteExtractions(&clean, manyExtractions(n)); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(clean.String(), "\n"), "\n")
	lines[n-1] += "\n"
	with := func(edit func(ls []string)) []byte {
		ls := append([]string(nil), lines...)
		edit(ls)
		return []byte(strings.Join(ls, ""))
	}
	const bad = `{"s":"a","p":"b","o":"garbage"}` + "\n"
	// Range boundaries: a 3000-line round at 8, 3 and 2 workers starts its
	// second range at 375, 1000 and 1500; ReadBatch(1024) at 2 workers at 512.
	feeds := map[string][]byte{
		"bench": bench,
		"mixed": with(func(ls []string) {
			for i := 0; i < n; i += 97 {
				switch i % 4 {
				case 0:
					ls[i] = `{"s":"café","p":"/p/a","o":"s:x\/y","extractor":"E","url":"u","site":"s","conf":1}` + "\n"
				case 1:
					ls[i] = `{"S":"/m/1","P":"/p/a","O":"s:x","Extractor":"E","URL":"u","Site":"s","Conf":0.5}` + "\n"
				case 2:
					ls[i] = "\n" + ls[i] + "\r\n"
				case 3:
					ls[i] = strings.TrimSuffix(ls[i], "\n") + "\r\n"
				}
			}
		}),
		"over-long": with(func(ls []string) {
			ls[2500] = `{"s":"` + strings.Repeat("x", maxLineLen) + `"}` + "\n"
		}),
		"torn":      with(func(ls []string) { ls[n-1] = ls[n-1][:40] }),
		"bad-first": with(func(ls []string) { ls[0] = bad }),
		"bad-375":   with(func(ls []string) { ls[375] = bad }),
		"bad-512":   with(func(ls []string) { ls[512] = bad }),
		"bad-1000":  with(func(ls []string) { ls[1000] = bad }),
		"bad-1500":  with(func(ls []string) { ls[1500] = "{not json\n" }),
		"bad-last":  with(func(ls []string) { ls[n-1] = bad }),
		"bad-everywhere": with(func(ls []string) {
			for _, i := range []int{0, 375, 512, 1000, 1500, n - 1} {
				ls[i] = fmt.Sprintf(`{"s":"a","p":"b","o":"garbage%d"}`+"\n", i)
			}
		}),
	}
	checkReaderAgainstRef(t, bytes.TrimSuffix(feeds["mixed"], []byte("\n")))

	scripts := map[string][]op{
		"interleaved": {{'s', 3}, {'n', 0}, {'b', 1500}, {'n', 0}, {'b', 100}, {'s', 700}, {'b', 3000}},
	}
	for _, size := range []int{1, 100, 1023, 1024, 3000, 8192, math.MaxInt} {
		scripts[fmt.Sprint("ReadBatch(", size, ")")] = []op{{'b', size}}
	}
	for feedName, feed := range feeds {
		for scriptName, script := range scripts {
			if feedName == "bench" && len(script) == 1 && script[0].n < splitMinLines {
				continue // the bench feed is big; small batches never split
			}
			want := transcript(feed, 1, 0, script)
			for _, workers := range []int{2, 3, 8} {
				if err := sameTranscript(want, transcript(feed, workers, 0, script)); err != nil {
					t.Errorf("%s, %s, %d workers: %v", feedName, scriptName, workers, err)
				}
			}
		}
	}

	// The feed with a malformed line at every position fails on the first.
	xs, err := NewExtractionReader(bytes.NewReader(feeds["bad-everywhere"])).ReadBatch(math.MaxInt)
	if want := "kfio: extraction line 1 at byte offset 0:"; xs != nil || err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("a malformed line everywhere: %d records, %v; want %q", len(xs), err, want)
	}
}
