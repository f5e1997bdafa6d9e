package kfio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// parseExtractionLineRef is the reader's line parser as it stood before the
// schema-specialised decoder — encoding/json and a hand-written conversion —
// kept as the oracle the reader is compared against. Its errors name the
// line number and the byte offset the line starts at.
func parseExtractionLineRef(line []byte, lineNo int, off int64) (extract.Extraction, error) {
	var rec ExtractionRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return extract.Extraction{}, fmt.Errorf("kfio: parse extraction line %d at byte offset %d: %w", lineNo, off, err)
	}
	obj, err := kb.ParseObject(rec.Object)
	if err != nil {
		return extract.Extraction{}, fmt.Errorf("kfio: extraction line %d at byte offset %d: %w", lineNo, off, err)
	}
	return extract.Extraction{
		Triple: kb.Triple{
			Subject:   kb.EntityID(rec.Subject),
			Predicate: kb.PredicateID(rec.Predicate),
			Object:    obj,
		},
		Extractor:  rec.Extractor,
		Pattern:    rec.Pattern,
		URL:        rec.URL,
		Site:       rec.Site,
		Confidence: rec.Conf,
	}, nil
}

// sameExtraction is == with floats compared by bits, so -0 differs from 0.
func sameExtraction(a, b extract.Extraction) bool {
	same := math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		math.Float64bits(a.Triple.Object.Num) == math.Float64bits(b.Triple.Object.Num)
	a.Confidence, b.Confidence = 0, 0
	a.Triple.Object.Num, b.Triple.Object.Num = 0, 0
	return same && a == b
}

// checkReaderAgainstRef reads data with an ExtractionReader and checks every
// line's record or error text against parseExtractionLineRef. It then reads
// the same bytes in one ReadBatch split three ways from two lines up, which
// must return the records before the first bad line, or that line's error,
// with every line the one-goroutine reader decoded on the fast path decoded
// on it again. It returns that exhausted batch reader for its fast-path count
// and its per-worker symbol tables.
func checkReaderAgainstRef(t *testing.T, data []byte) *ExtractionReader {
	t.Helper()
	src := append(data[:len(data):len(data)], '\n')
	r := NewExtractionReader(bytes.NewReader(src))
	var want []extract.Extraction // the records before the first bad line
	var firstErr error
	off := 0
	for i, line := range bytes.Split(data, []byte("\n")) {
		start := off
		off += len(line) + 1
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		ref, werr := parseExtractionLineRef(line, i+1, int64(start))
		got, gerr := r.Next()
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("line %d %q:\nreader error %v\n   ref error %v", i+1, line, gerr, werr)
		}
		if !sameExtraction(got, ref) {
			t.Fatalf("line %d %q:\nreader %+v\n   ref %+v", i+1, line, got, ref)
		}
		if firstErr == nil {
			firstErr = werr
			if werr == nil {
				want = append(want, ref)
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last line: %v, want io.EOF", err)
	}

	b := NewExtractionReader(bytes.NewReader(src))
	b.workers, b.splitMin = 3, 2
	got, err := b.ReadBatch(bytes.Count(src, []byte("\n")) + 1) // every line, then io.EOF
	if firstErr != nil {
		if err == nil || err.Error() != firstErr.Error() {
			t.Fatalf("split ReadBatch error %v\n    first ref error %v", err, firstErr)
		}
		return b
	}
	if err != io.EOF || len(got) != len(want) {
		t.Fatalf("split ReadBatch: %d records, %v; want %d, io.EOF", len(got), err, len(want))
	}
	for i := range want {
		if !sameExtraction(got[i], want[i]) {
			t.Fatalf("split ReadBatch: record %d %+v, ref %+v", i, got[i], want[i])
		}
	}
	if b.fast != r.fast {
		t.Fatalf("split ReadBatch decoded %d lines on the fast path, Next %d", b.fast, r.fast)
	}
	return b
}

// benchFeed is the bench dataset as ExtractionWriter encodes it.
func benchFeed(t *testing.T) (xs []extract.Extraction, feed []byte) {
	t.Helper()
	xs = exper.SharedDataset(exper.ScaleBench, 4242).Extractions
	var buf bytes.Buffer
	if err := WriteExtractions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	return xs, buf.Bytes()
}

// TestWriterFeedTakesFastPath: every line ExtractionWriter writes for the
// bench dataset is decoded by RecordDecoder, not the encoding/json fallback,
// and both Next and ReadExtractions return what the pre-decoder parser
// returns. A writer or schema change that silently demotes the feed fails
// here, not in a benchmark.
func TestWriterFeedTakesFastPath(t *testing.T) {
	xs, feed := benchFeed(t)
	if r := checkReaderAgainstRef(t, bytes.TrimSuffix(feed, []byte("\n"))); r.fast != len(xs) {
		t.Fatalf("%d of %d writer lines took the fast path", r.fast, len(xs))
	}
	got, err := ReadExtractions(bytes.NewReader(feed))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(feed, []byte("\n")), []byte("\n"))
	if len(got) != len(lines) {
		t.Fatalf("ReadExtractions: %d records, want %d", len(got), len(lines))
	}
	for i, line := range lines {
		if want, err := parseExtractionLineRef(line, i+1, 0); err != nil || got[i] != want {
			t.Fatalf("ReadExtractions: record %d: %+v, ref %+v (%v)", i, got[i], want, err)
		}
	}
}

// TestFallbackLines: valid lines outside the fast shape are still accepted,
// through encoding/json, with its values; invalid ones fail with its errors.
func TestFallbackLines(t *testing.T) {
	lines := []string{
		`{"s":"caf\u00e9","p":"b","o":"s:x\/y","extractor":"E","url":"u","site":"s","conf":1}`,
		`{"S":"a","P":"b","O":"s:x","Extractor":"E","URL":"u","Site":"s","Conf":0.5}`,
		`{"s":"first","s":"last","p":"b","o":"s:x"}`,
		`{"s":null,"p":"b","o":"s:x","conf":null}`,
		`{"s":"a","p":"b","o":"s:x","extra":{"nested":[1,2]}}`,
		"{\"s\":\"a\xffb\",\"p\":\"b\",\"o\":\"s:x\"}",
		`{"s":"a","p":"b","o":"s:x","conf":1e999}`,
		`{"s":"a","p":"b","o":"s:x","conf":01}`,
		`{"s":"a","p":"b","o":"s:x"}}`,
		`[]`,
	}
	if r := checkReaderAgainstRef(t, []byte(strings.Join(lines, "\n"))); r.fast != 0 {
		t.Fatalf("%d lines outside the fast shape took the fast path", r.fast)
	}
}

// TestRecordsDoNotAliasScanner: records of one batch are unchanged after
// later batches are read and after the source bytes are overwritten — decoded
// strings are copies, never views of the scanner's buffer or the input.
func TestRecordsDoNotAliasScanner(t *testing.T) {
	xs := manyExtractions(3000) // several 64 KB scanner buffers
	var buf bytes.Buffer
	if err := WriteExtractions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	src := buf.Bytes()
	r := NewExtractionReader(bytes.NewReader(src))
	var batches [][]extract.Extraction
	for {
		batch, err := r.ReadBatch(500)
		batches = append(batches, batch)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range src {
		src[i] = 'X'
	}
	i := 0
	for _, batch := range batches {
		for _, x := range batch {
			if x != xs[i] {
				t.Fatalf("record %d changed after later reads: %+v != %+v", i, x, xs[i])
			}
			i++
		}
	}
	if i != len(xs) {
		t.Fatalf("read %d of %d records", i, len(xs))
	}
}

// TestSymbolTableBounded: a feed with four times the table's bound in
// distinct strings decodes, on the fast path, to what the fallback decodes,
// and every worker's table stays within its constant — each of the three
// workers sees more than the bound in distinct strings, so each reaches it.
func TestSymbolTableBounded(t *testing.T) {
	var feed bytes.Buffer
	const n = 4 * symtabMaxSlots
	for i := 0; i < n; i++ {
		fmt.Fprintf(&feed, `{"s":"/m/%d","p":"/p/%d","o":"s:v","extractor":"E","url":"u","site":"s","conf":-1}`+"\n", i, i%7)
	}
	r := checkReaderAgainstRef(t, bytes.TrimSuffix(feed.Bytes(), []byte("\n")))
	if r.fast != n {
		t.Fatalf("%d of %d lines took the fast path", r.fast, n)
	}
	if len(r.decs) != 3 {
		t.Fatalf("%d decoders, want one per worker (3)", len(r.decs))
	}
	for w := range r.decs {
		if got := len(r.decs[w].slots); got != symtabMaxSlots {
			t.Fatalf("worker %d's symbol table has %d slots after %d distinct strings, want the bound %d", w, got, n/3, symtabMaxSlots)
		}
	}
}
