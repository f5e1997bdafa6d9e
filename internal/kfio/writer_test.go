package kfio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// TestExtractionWriterMatchesWriteExtractions: the streaming writer emits
// byte-identical JSONL to the one-shot WriteExtractions, whether records go
// one at a time or in batches.
func TestExtractionWriterMatchesWriteExtractions(t *testing.T) {
	xs := sampleExtractions()
	var want bytes.Buffer
	if err := WriteExtractions(&want, xs); err != nil {
		t.Fatal(err)
	}

	var one bytes.Buffer
	w := NewExtractionWriter(&one)
	for _, x := range xs {
		if err := w.Write(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), one.Bytes()) {
		t.Fatalf("per-record stream differs from WriteExtractions:\n%q\nvs\n%q", one.Bytes(), want.Bytes())
	}
	if w.Count() != len(xs) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(xs))
	}

	var batched bytes.Buffer
	bw := NewExtractionWriter(&batched)
	if err := bw.WriteBatch(xs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteBatch(xs[2:]); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), batched.Bytes()) {
		t.Fatal("batched stream differs from WriteExtractions")
	}

	// And the reader round-trips it.
	got, err := ReadExtractions(&one)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("round trip: %d records, want %d", len(got), len(xs))
	}
}

// writeOutcome is what a writer leaves after a batch: the bytes flushed,
// the returned error and Count.
type writeOutcome struct {
	out   string
	err   string
	count int
}

// writeByLoop writes xs through a loop of Write, the oracle for WriteBatch.
func writeByLoop(sink io.Writer, xs []extract.Extraction) writeOutcome {
	w := NewExtractionWriter(sink)
	var o writeOutcome
	for _, x := range xs {
		if err := w.Write(x); err != nil {
			o.err = err.Error()
			break
		}
	}
	return o.finish(w)
}

func writeByBatch(sink io.Writer, xs []extract.Extraction) writeOutcome {
	w := NewExtractionWriter(sink)
	var o writeOutcome
	if err := w.WriteBatch(xs); err != nil {
		o.err = err.Error()
	}
	return o.finish(w)
}

func (o writeOutcome) finish(w *ExtractionWriter) writeOutcome {
	if err := w.Flush(); err != nil && o.err == "" {
		o.err = err.Error()
	}
	o.count = w.Count()
	return o
}

// failAfter is a sink that takes limit bytes and then fails.
type failAfter struct {
	buf   bytes.Buffer
	limit int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if room := f.limit - f.buf.Len(); len(p) > room {
		f.buf.Write(p[:max(room, 0)])
		return max(room, 0), errors.New("sink full")
	}
	return f.buf.Write(p)
}

// feedRows builds n records that vary in every field the encoder treats
// differently: entity, number and string objects, empty and escaped
// strings, an absent pattern, and confidences in both float formats.
func feedRows(n int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	for i := range xs {
		obj := kb.StringObject(fmt.Sprintf("v%d <&> \"é\"", i%97))
		switch i % 3 {
		case 0:
			obj = kb.EntityObject(kb.EntityID(fmt.Sprintf("/m/o%d", i%501)))
		case 1:
			obj = kb.NumberObject(float64(i%1000) * 1.25e-7)
		}
		xs[i] = extract.Extraction{
			Triple:     kb.Triple{Subject: kb.EntityID(fmt.Sprintf("/m/%d", i)), Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", i%13)), Object: obj},
			Extractor:  fmt.Sprintf("EX%d", i%12),
			URL:        fmt.Sprintf("http://site%d.example.com/p%d", i%40, i),
			Site:       fmt.Sprintf("site%d.example.com", i%40),
			Confidence: float64(i%1001) / 1000,
		}
		if i%4 != 0 {
			xs[i].Pattern = fmt.Sprintf("tpl%d|attr", i%7)
		}
		if i%11 == 0 {
			xs[i].Confidence = 1e21 + float64(i)
		}
	}
	return xs
}

// TestWriteBatchMatchesWrite: WriteBatch is a loop of Write — the same
// bytes flushed, the same error and the same Count — at every worker count,
// on batches below the size it splits at and above it (over several rounds),
// with a confidence that has no JSON form in the first, a middle or the last
// row, and on a sink that fails part way.
func TestWriteBatchMatchesWrite(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	sizes := []int{1, 2*writeSplitMin - 1, 2 * writeSplitMin, 5000, 8*writeRangeRows + 17}
	rows := feedRows(slices.Max(sizes))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range sizes {
			for _, nan := range []int{-1, 0, n / 2, n - 1} {
				xs := slices.Clone(rows[:n])
				if nan >= 0 {
					xs[nan].Confidence = math.NaN()
				}
				var a, b bytes.Buffer
				want, got := writeByLoop(&a, xs), writeByBatch(&b, xs)
				want.out, got.out = a.String(), b.String()
				if got != want {
					t.Fatalf("GOMAXPROCS %d, %d rows, NaN at %d: WriteBatch wrote %d bytes, err %q, Count %d; a loop of Write %d bytes, err %q, Count %d",
						procs, n, nan, len(got.out), got.err, got.count, len(want.out), want.err, want.count)
				}
				if nan >= 0 && got.err == "" {
					t.Fatalf("GOMAXPROCS %d, %d rows: NaN at %d was written", procs, n, nan)
				}
			}
			if n < 2*writeSplitMin {
				continue
			}
			a, b := &failAfter{limit: 100_000}, &failAfter{limit: 100_000}
			want, got := writeByLoop(a, rows[:n]), writeByBatch(b, rows[:n])
			want.out, got.out = a.buf.String(), b.buf.String()
			if want.err == "" {
				t.Fatalf("%d rows fit the failing sink", n)
			}
			if got != want {
				t.Fatalf("GOMAXPROCS %d, %d rows, failing sink: WriteBatch wrote %d bytes, err %q, Count %d; a loop of Write %d bytes, err %q, Count %d",
					procs, n, len(got.out), got.err, got.count, len(want.out), want.err, want.count)
			}
		}
	}
}
