package kfio

import (
	"bufio"
	"encoding/json"
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
	enc *json.Encoder
	n   int
}

// NewExtractionWriter returns a streaming writer over w.
func NewExtractionWriter(w io.Writer) *ExtractionWriter {
	bw := bufio.NewWriter(w)
	return &ExtractionWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one extraction record.
func (w *ExtractionWriter) Write(x extract.Extraction) error {
	rec := RecordOf(x)
	if err := w.enc.Encode(&rec); err != nil {
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
