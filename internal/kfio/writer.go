package kfio

import (
	"bufio"
	"fmt"
	"io"

	"kfusion/internal/extract"
)

// ExtractionWriter streams extraction records to a JSONL feed without
// holding the corpus in memory — the writer side of ExtractionReader, and
// what lets the benchmark harness generate web-scale feeds (tens of millions
// of records) in bounded memory. Writes buffer through one bufio.Writer;
// call Flush (or Close a flushing wrapper around the underlying file) before
// handing the feed to a reader.
type ExtractionWriter struct {
	bw  *bufio.Writer
	row []byte // the record being encoded, reused
	n   int
}

// NewExtractionWriter returns a streaming writer over w.
func NewExtractionWriter(w io.Writer) *ExtractionWriter {
	return &ExtractionWriter{bw: bufio.NewWriter(w)}
}

// Write appends one extraction record: the ExtractionRecord of x (RecordOf)
// as encoding/json writes it — fields in the struct's order, pattern omitted
// when empty — appended into the writer's row buffer (encode.go). A
// confidence that is not a number has no JSON form and is an error.
func (w *ExtractionWriter) Write(x extract.Extraction) error {
	row := appendJSONTriple(w.row[:0], x.Triple)
	row = append(row, `,"extractor":`...)
	row = appendJSONString(row, x.Extractor)
	if x.Pattern != "" {
		row = append(row, `,"pattern":`...)
		row = appendJSONString(row, x.Pattern)
	}
	row = append(row, `,"url":`...)
	row = appendJSONString(row, x.URL)
	row = append(row, `,"site":`...)
	row = appendJSONString(row, x.Site)
	row = append(row, `,"conf":`...)
	row, err := appendJSONFloat(row, x.Confidence)
	if err != nil {
		return fmt.Errorf("kfio: write extraction: %w", err)
	}
	row = append(row, '}', '\n')
	w.row = row
	if _, err := w.bw.Write(row); err != nil {
		return fmt.Errorf("kfio: write extraction: %w", err)
	}
	w.n++
	return nil
}

// WriteBatch appends a slice of records.
func (w *ExtractionWriter) WriteBatch(xs []extract.Extraction) error {
	for i := range xs {
		if err := w.Write(xs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Count reports the records written so far.
func (w *ExtractionWriter) Count() int { return w.n }

// Flush drains the buffer to the underlying writer. Always call it once
// after the last Write; the records are not on the wire until it returns.
func (w *ExtractionWriter) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("kfio: flush extractions: %w", err)
	}
	return nil
}
