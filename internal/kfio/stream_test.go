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
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// manyExtractions builds a deterministic stream larger than any batch size
// used in the tests.
func manyExtractions(n int) []extract.Extraction {
	out := make([]extract.Extraction, n)
	for i := range out {
		out[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("/m/%d", i%50)),
				Predicate: "/p/a",
				Object:    kb.StringObject(fmt.Sprintf("v%d", i%7)),
			},
			Extractor:  fmt.Sprintf("X%d", i%3),
			URL:        fmt.Sprintf("http://s%d/p%d", i%9, i),
			Site:       fmt.Sprintf("s%d", i%9),
			Confidence: -1,
		}
	}
	return out
}

// TestExtractionStreamingRoundTrip pins the chunked reader against the batch
// writer: iterating per-record and per-batch must reproduce the written
// stream exactly, with a final short batch signalled by io.EOF.
func TestExtractionStreamingRoundTrip(t *testing.T) {
	want := manyExtractions(257)
	var buf bytes.Buffer
	if err := WriteExtractions(&buf, want); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Per-record iteration.
	r := NewExtractionReader(bytes.NewReader(raw))
	var got []extract.Extraction
	for {
		x, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, x)
	}
	if len(got) != len(want) {
		t.Fatalf("Next: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Next: record %d: %+v != %+v", i, got[i], want[i])
		}
	}

	// Batched iteration: 257 records in batches of 100 -> 100, 100, 57+EOF.
	r = NewExtractionReader(bytes.NewReader(raw))
	var batches [][]extract.Extraction
	for {
		batch, err := r.ReadBatch(100)
		if len(batch) > 0 {
			batches = append(batches, batch)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(batches) != 3 || len(batches[0]) != 100 || len(batches[2]) != 57 {
		t.Fatalf("batch shapes wrong: %d batches", len(batches))
	}
	var joined []extract.Extraction
	for _, b := range batches {
		joined = append(joined, b...)
	}
	for i := range want {
		if joined[i] != want[i] {
			t.Fatalf("ReadBatch: record %d differs", i)
		}
	}
}

// TestReadBatchSizes is the table of batch sizes against a ten-record feed:
// max bounds the batch, never the allocation, so a max far beyond the feed —
// kfuse -append -chunk 2000000000 — must read the ten records instead of
// dying in makeslice before the first byte.
func TestReadBatchSizes(t *testing.T) {
	want := manyExtractions(10)
	var buf bytes.Buffer
	if err := WriteExtractions(&buf, want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		max, first int
		wantErr    error // of the first call
		invalid    bool
	}{
		{max: 0, invalid: true},
		{max: -3, invalid: true},
		{max: 1, first: 1},
		{max: 4, first: 4},
		{max: 10, first: 10}, // full batch: EOF only on the next call
		{max: 11, first: 10, wantErr: io.EOF},
		{max: batchPrealloc + 1, first: 10, wantErr: io.EOF},
		{max: 2_000_000_000, first: 10, wantErr: io.EOF},
		{max: math.MaxInt, first: 10, wantErr: io.EOF},
	} {
		r := NewExtractionReader(bytes.NewReader(buf.Bytes()))
		batch, err := r.ReadBatch(tc.max)
		if tc.invalid {
			if err == nil || err == io.EOF || batch != nil {
				t.Errorf("ReadBatch(%d) = %d records, %v; want a size error", tc.max, len(batch), err)
			}
			continue
		}
		if err != tc.wantErr || len(batch) != tc.first {
			t.Errorf("ReadBatch(%d) = %d records, %v; want %d, %v", tc.max, len(batch), err, tc.first, tc.wantErr)
			continue
		}
		if cap(batch) > batchPrealloc {
			t.Errorf("ReadBatch(%d): capacity %d reserved for %d records", tc.max, cap(batch), len(batch))
		}
		for i := range batch {
			if batch[i] != want[i] {
				t.Errorf("ReadBatch(%d): record %d differs", tc.max, i)
				break
			}
		}
	}

	// Past the reserved capacity the batch grows with what is read.
	big := manyExtractions(batchPrealloc + 5)
	buf.Reset()
	if err := WriteExtractions(&buf, big); err != nil {
		t.Fatal(err)
	}
	batch, err := NewExtractionReader(&buf).ReadBatch(math.MaxInt)
	if err != io.EOF || len(batch) != len(big) || batch[len(big)-1] != big[len(big)-1] {
		t.Fatalf("ReadBatch past the reserved capacity: %d records, %v; want %d, EOF", len(batch), err, len(big))
	}
}

// TestFusedStreamingRoundTrip pins the fused-triple streaming reader against
// the writer and the batch ReadFused.
func TestFusedStreamingRoundTrip(t *testing.T) {
	res := &fusion.Result{}
	for i := 0; i < 123; i++ {
		f := fusion.FusedTriple{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("/m/%d", i)),
				Predicate: "/p/a",
				Object:    kb.NumberObject(float64(i)),
			},
			Probability: float64(i) / 123,
			Predicted:   i%5 != 0,
			Provenances: i % 7,
			Extractors:  i % 3,
		}
		if !f.Predicted {
			f.Probability = -1
			res.Unpredicted++
		}
		res.Triples = append(res.Triples, f)
	}
	var buf bytes.Buffer
	if err := WriteFused(&buf, res); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	fr := NewFusedReader(bytes.NewReader(raw))
	n := 0
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Triple != res.Triples[n].Triple || f.Predicted != res.Triples[n].Predicted {
			t.Fatalf("record %d differs", n)
		}
		n++
	}
	if n != len(res.Triples) {
		t.Fatalf("streamed %d records, want %d", n, len(res.Triples))
	}
	batch, err := ReadFused(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Triples) != len(res.Triples) || batch.Unpredicted != res.Unpredicted {
		t.Fatalf("batch ReadFused diverged: %d/%d vs %d/%d",
			len(batch.Triples), batch.Unpredicted, len(res.Triples), res.Unpredicted)
	}
}

// TestStreamingReaderErrors pins error propagation through the streaming
// path: malformed JSON and bad objects surface with line attribution.
func TestStreamingReaderErrors(t *testing.T) {
	r := NewExtractionReader(strings.NewReader("{bad json\n"))
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatal("want parse error, got", err)
	}
	fr := NewFusedReader(strings.NewReader(`{"s":"a","p":"b","o":"garbage"}` + "\n"))
	if _, err := fr.Next(); err == nil || err == io.EOF {
		t.Fatal("want object error, got", err)
	}
	// A fused file's rows are all newline-terminated, so an unterminated
	// tail is torn even when its bytes parse.
	row := `{"s":"a","p":"b","o":"s:c","prob":0.5,"predicted":true,"provenances":1,"extractors":1}`
	fr = NewFusedReader(strings.NewReader(row + "\n" + row))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	var partial *ErrPartialLine
	if _, err := fr.Next(); !errors.As(err, &partial) || partial.Offset != int64(len(row)+1) {
		t.Fatalf("torn fused tail: got %v, want *ErrPartialLine at offset %d", err, len(row)+1)
	}
}

// TestPartialLineRetry checks the tailing-consumer contract end to end: a
// feed ending mid-record yields the complete prefix plus a typed
// *ErrPartialLine whose offset lets the consumer resume exactly where the
// producer left off.
func TestPartialLineRetry(t *testing.T) {
	var buf bytes.Buffer
	xs := manyExtractions(5)
	if err := WriteExtractions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the final record.
	cut := len(full) - 17
	feed := full[:cut]

	r := NewExtractionReader(bytes.NewReader(feed))
	got, err := r.ReadBatch(100)
	var partial *ErrPartialLine
	if !errors.As(err, &partial) {
		t.Fatalf("ReadBatch error = %v, want *ErrPartialLine", err)
	}
	if len(got) != 4 {
		t.Fatalf("complete records = %d, want 4", len(got))
	}
	wantOff := int64(bytes.LastIndexByte(feed, '\n') + 1)
	if partial.Offset != wantOff {
		t.Fatalf("Offset = %d, want %d", partial.Offset, wantOff)
	}
	if !bytes.Equal(partial.Line, feed[wantOff:]) {
		t.Fatalf("Line = %q, want %q", partial.Line, feed[wantOff:])
	}

	// The producer finishes the record; the consumer re-reads from Offset.
	retry := NewExtractionReader(bytes.NewReader(full[partial.Offset:]))
	rest, err := retry.ReadBatch(100)
	if err != io.EOF {
		t.Fatalf("retry error = %v, want io.EOF", err)
	}
	if len(rest) != 1 {
		t.Fatalf("retry records = %d, want 1", len(rest))
	}
	all := append(got, rest...)
	for i := range xs {
		if all[i] != xs[i] {
			t.Fatalf("record %d drifted: %+v vs %+v", i, all[i], xs[i])
		}
	}

	// Whole-file semantics stay lenient: a parseable unterminated tail is a
	// cosmetic missing newline, not a partial record.
	lenient, err := ReadExtractions(bytes.NewReader(bytes.TrimSuffix(full, []byte("\n"))))
	if err != nil {
		t.Fatalf("ReadExtractions on unterminated file: %v", err)
	}
	if len(lenient) != len(xs) {
		t.Fatalf("lenient read = %d records, want %d", len(lenient), len(xs))
	}
}

// TestSkip pins the resume path: Skip counts the same records Next would have
// returned — complete non-blank lines, CRLF or LF — without decoding them,
// reports io.EOF and *ErrPartialLine with Next's offsets, and leaves the
// reader where ReadBatch continues with line numbers counted from the start.
func TestSkip(t *testing.T) {
	rec := func(i int) string {
		return fmt.Sprintf(`{"s":"/m/%d","p":"/p","o":"s:v","extractor":"X","url":"u","site":"s","conf":1}`, i)
	}
	// Lines: 1 rec0, 2 blank, 3 rec1 (CRLF), 4 junk (never decoded when
	// skipped), 5 blank (CRLF), 6 rec2, 7 bad object, 8 rec3, 9 torn.
	feed := rec(0) + "\n\n" + rec(1) + "\r\n" + "not json at all\n" + "\r\n" + rec(2) + "\n" +
		`{"s":"a","p":"b","o":"garbage"}` + "\n" + rec(3) + "\n"
	torn := `{"s":"/m/9","p`

	r := NewExtractionReader(strings.NewReader(feed + torn))
	if n, err := r.Skip(0); n != 0 || err != nil {
		t.Fatalf("Skip(0) = %d, %v", n, err)
	}
	if n, err := r.Skip(3); n != 3 || err != nil {
		t.Fatalf("Skip(3) over a blank line, a CRLF line and a junk line = %d, %v; want 3, nil", n, err)
	}
	batch, err := r.ReadBatch(1)
	if err != nil || len(batch) != 1 || batch[0].Triple.Subject != "/m/2" {
		t.Fatalf("ReadBatch after Skip = %+v, %v; want the /m/2 record", batch, err)
	}
	if _, err := r.ReadBatch(1); err == nil || !strings.Contains(err.Error(), "extraction line 7:") {
		t.Fatalf("error after Skip = %v; want it attributed to line 7", err)
	}
	// Skip into the partial tail: one complete record, then the typed error
	// with the tail's offset and bytes.
	n, err := r.Skip(5)
	var partial *ErrPartialLine
	if n != 1 || !errors.As(err, &partial) {
		t.Fatalf("Skip into a torn tail = %d, %v; want 1, *ErrPartialLine", n, err)
	}
	if partial.Offset != int64(len(feed)) || string(partial.Line) != torn {
		t.Fatalf("partial = offset %d %q; want offset %d %q", partial.Offset, partial.Line, len(feed), torn)
	}

	// Skip past EOF reports how far it got.
	r = NewExtractionReader(strings.NewReader(feed))
	if n, err := r.Skip(100); n != 6 || err != io.EOF {
		t.Fatalf("Skip past EOF = %d, %v; want 6, io.EOF", n, err)
	}
	if n, err := r.Skip(1); n != 0 || err != io.EOF {
		t.Fatalf("Skip at EOF = %d, %v; want 0, io.EOF", n, err)
	}

	// Skip(n) then ReadBatch ≡ ReadBatch then drop n, on a clean feed.
	xs := manyExtractions(40)
	var buf bytes.Buffer
	if err := WriteExtractions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	r = NewExtractionReader(bytes.NewReader(buf.Bytes()))
	if n, err := r.Skip(25); n != 25 || err != nil {
		t.Fatalf("Skip(25) = %d, %v", n, err)
	}
	rest, err := r.ReadBatch(100)
	if err != io.EOF || len(rest) != 15 {
		t.Fatalf("after Skip(25): %d records, %v; want 15, io.EOF", len(rest), err)
	}
	for i := range rest {
		if rest[i] != xs[25+i] {
			t.Fatalf("record %d after Skip differs: %+v vs %+v", 25+i, rest[i], xs[25+i])
		}
	}
}

// TestLongLines pins the scanner's two line sources: a line that fits the
// read buffer is used in place, a longer one is stitched from pieces — same
// records, same offsets — and a line over maxLineLen is an error, not a hang.
func TestLongLines(t *testing.T) {
	xs := manyExtractions(3)
	xs[1].Triple.Subject = kb.EntityID("/m/" + strings.Repeat("long", 50_000)) // 200 KB: four 64 KB buffers
	var buf bytes.Buffer
	if err := WriteExtractions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	torn := `{"s":"/m/torn`
	r := NewExtractionReader(strings.NewReader(buf.String() + torn))
	got, err := r.ReadBatch(10)
	var partial *ErrPartialLine
	if !errors.As(err, &partial) || partial.Offset != int64(buf.Len()) || string(partial.Line) != torn {
		t.Fatalf("after a stitched line: %v, want the torn tail at offset %d", err, buf.Len())
	}
	if len(got) != len(xs) {
		t.Fatalf("read %d of %d records", len(got), len(xs))
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("record %d differs around a stitched line", i)
		}
	}

	huge := `{"s":"` + strings.Repeat("x", maxLineLen) + `"}` + "\n"
	r = NewExtractionReader(strings.NewReader(buf.String() + huge))
	if n, err := r.Skip(10); n != 3 || err == nil || !strings.Contains(err.Error(), "line 4 exceeds") {
		t.Fatalf("Skip over an oversized line = %d, %v; want 3 and a line-4 size error", n, err)
	}
}
