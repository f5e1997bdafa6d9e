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
// kept as the oracle the reader is compared against.
func parseExtractionLineRef(line []byte, lineNo int) (extract.Extraction, error) {
	var rec ExtractionRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return extract.Extraction{}, fmt.Errorf("kfio: parse extraction line %d: %w", lineNo, err)
	}
	obj, err := kb.ParseObject(rec.Object)
	if err != nil {
		return extract.Extraction{}, fmt.Errorf("kfio: extraction line %d: %w", lineNo, err)
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

// sameExtraction is == with floats compared by bits, so -0 differs from 0 and
// a NaN number object ("n:NaN" parses) equals itself.
func sameExtraction(a, b extract.Extraction) bool {
	same := math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		math.Float64bits(a.Triple.Object.Num) == math.Float64bits(b.Triple.Object.Num)
	a.Confidence, b.Confidence = 0, 0
	a.Triple.Object.Num, b.Triple.Object.Num = 0, 0
	return same && a == b
}

// checkReaderAgainstRef reads data with an ExtractionReader and checks every
// line's record or error text against parseExtractionLineRef. It returns the
// exhausted reader for its fast-path count and symbol table.
func checkReaderAgainstRef(t *testing.T, data []byte) *ExtractionReader {
	t.Helper()
	r := NewExtractionReader(bytes.NewReader(append(data[:len(data):len(data)], '\n')))
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		want, werr := parseExtractionLineRef(line, i+1)
		got, gerr := r.Next()
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("line %d %q:\nreader error %v\n   ref error %v", i+1, line, gerr, werr)
		}
		if !sameExtraction(got, want) {
			t.Fatalf("line %d %q:\nreader %+v\n   ref %+v", i+1, line, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last line: %v, want io.EOF", err)
	}
	return r
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
		if want, err := parseExtractionLineRef(line, i+1); err != nil || got[i] != want {
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
// and the table stays within its constant.
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
	if got := len(r.dec.slots); got != symtabMaxSlots {
		t.Fatalf("symbol table has %d slots after %d distinct strings, want the bound %d", got, n, symtabMaxSlots)
	}
}
