package kfio

import (
	"bufio"
	"fmt"
	"io"
	"runtime"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
)

// ExtractionWriter streams extraction records to a JSONL feed without
// holding the corpus in memory — the writer side of ExtractionReader, and
// what lets the benchmark harness generate web-scale feeds (tens of millions
// of records) in bounded memory. Writes buffer through one bufio.Writer;
// call Flush (or Close a flushing wrapper around the underlying file) before
// handing the feed to a reader.
type ExtractionWriter struct {
	bw     *bufio.Writer
	row    []byte // the record being encoded, reused
	n      int
	ranges []encodedRange // WriteBatch's per-worker buffers, reused
}

// encodedRange is one worker's share of a WriteBatch round: its rows
// encoded back to back, where each ends, and the encode error of the row
// after the last one, which ended the range early.
type encodedRange struct {
	buf  []byte
	ends []int
	err  error
}

// WriteBatch encodes in rounds of up to writeRangeRows records per worker
// (about half a megabyte of rows each), so the encoded rows in flight stay
// small however large the batch is, and gives each worker at least
// writeSplitMin records. On 2 shared vCPUs, BenchmarkWriteExtractions ran in
// 65–76 ms at two workers with rounds of 4096–8192 records, in 92–97 ms with
// rounds of 32768 (their buffers' first growth allocates 45 MB per call), and
// in 76–118 ms at one worker.
const (
	writeSplitMin  = 1024
	writeRangeRows = 2048
)

// NewExtractionWriter returns a streaming writer over w.
func NewExtractionWriter(w io.Writer) *ExtractionWriter {
	return &ExtractionWriter{bw: bufio.NewWriter(w)}
}

// Write appends one extraction record: the ExtractionRecord of x (RecordOf)
// as encoding/json writes it — fields in the struct's order, pattern omitted
// when empty — appended into the writer's row buffer (encode.go). A
// confidence that is not a number has no JSON form and is an error.
func (w *ExtractionWriter) Write(x extract.Extraction) error {
	row, err := appendExtraction(w.row[:0], &x)
	if err != nil {
		return fmt.Errorf("kfio: write extraction: %w", err)
	}
	w.row = row
	return w.writeRow(row)
}

// writeRow puts one encoded record on the buffered stream and counts it.
func (w *ExtractionWriter) writeRow(row []byte) error {
	if _, err := w.bw.Write(row); err != nil {
		return fmt.Errorf("kfio: write extraction: %w", err)
	}
	w.n++
	return nil
}

// appendExtraction appends x's feed line to dst.
func appendExtraction(dst []byte, x *extract.Extraction) ([]byte, error) {
	row := appendJSONTriple(dst, x.Triple)
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
		return dst, err
	}
	return append(row, '}', '\n'), nil
}

// WriteBatch appends a slice of records: what a loop of Write over xs does —
// the same bytes, the same Count, and the first error, with every record
// before it written. The batch is encoded in rounds; in each, up to
// GOMAXPROCS workers encode one contiguous range each into their own
// buffer, and the ranges' rows then go to the stream in order, one
// Write-sized write per row.
func (w *ExtractionWriter) WriteBatch(xs []extract.Extraction) error {
	workers := runtime.GOMAXPROCS(0)
	for len(w.ranges) < workers {
		w.ranges = append(w.ranges, encodedRange{})
	}
	for len(xs) > 0 {
		round := xs[:min(len(xs), workers*writeRangeRows)]
		xs = xs[len(round):]
		rs := w.ranges[:max(1, min(workers, len(round)/writeSplitMin))]
		csr.ParallelRange(len(round), len(rs), func(k, lo, hi int) {
			rs[k].encode(round[lo:hi])
		})
		for k := range rs {
			r := &rs[k]
			start := 0
			for _, end := range r.ends {
				if err := w.writeRow(r.buf[start:end]); err != nil {
					return err
				}
				start = end
			}
			if r.err != nil {
				return fmt.Errorf("kfio: write extraction: %w", r.err)
			}
		}
	}
	return nil
}

// encode fills r with xs' rows, up to the first that does not encode.
func (r *encodedRange) encode(xs []extract.Extraction) {
	r.buf, r.ends, r.err = r.buf[:0], r.ends[:0], nil
	for i := range xs {
		buf, err := appendExtraction(r.buf, &xs[i])
		if err != nil {
			r.err = err
			return
		}
		r.buf = buf
		r.ends = append(r.ends, len(buf))
	}
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
