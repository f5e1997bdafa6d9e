// Package kfio serializes the pipeline's interchange records as JSON Lines:
// extractions (kfgen → kfuse), gold labels (kfgen → kfuse/kfeval) and fused
// triples (kfuse → kfeval). JSONL keeps the tools composable with standard
// Unix tooling and streams without loading whole corpora.
//
// Extraction records — the one codec on the timed ingest path — decode
// through RecordDecoder, a decoder specialised to the shape ExtractionWriter
// emits, with encoding/json as the fallback for every other valid line and
// as the reference the tests compare it against. ExtractionReader.ReadBatch
// and ReadExtractions gather a batch's lines first and then decode them on
// every core, one contiguous range and one RecordDecoder per worker, with
// the records and errors of a one-goroutine decode. The two writers on a timed
// path, ExtractionWriter and WriteFused, are specialised the same way: rows
// are appended field by field into one buffer (encode.go), byte for byte what
// encoding/json writes for ExtractionRecord and FusedRecord, with
// encoding/json itself taking any string that needs an escape and standing
// in the tests as the oracle. Gold records and the fused reader go through
// encoding/json alone.
package kfio

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// ExtractionRecord is the serialized form of one extraction: a JSONL feed
// line, and (as httpapi.Extraction) one element of a kfserved append body, so
// a feed wraps into an append request with nothing but
// `jq -s '{extractions: .}'`. Confidence -1 means "extractor reports none",
// as everywhere in the pipeline; the simulator's error attribution never
// leaves the process (it is ground truth, not data).
type ExtractionRecord struct {
	Subject   string `json:"s"`
	Predicate string `json:"p"`
	// Object is in kb.Object.String tagged form: "e:/m/x", "s:text", "n:3".
	Object    string  `json:"o"`
	Extractor string  `json:"extractor"`
	Pattern   string  `json:"pattern,omitempty"`
	URL       string  `json:"url"`
	Site      string  `json:"site"`
	Conf      float64 `json:"conf"`
}

// RecordOf converts a pipeline extraction to its serialized form.
func RecordOf(x extract.Extraction) ExtractionRecord {
	return ExtractionRecord{
		Subject:   string(x.Triple.Subject),
		Predicate: string(x.Triple.Predicate),
		Object:    x.Triple.Object.String(),
		Extractor: x.Extractor,
		Pattern:   x.Pattern,
		URL:       x.URL,
		Site:      x.Site,
		Conf:      x.Confidence,
	}
}

// ToExtraction converts the record to the pipeline's extraction type. The
// only failure is an object kb.ParseObject refuses; its error comes back bare.
func (r *ExtractionRecord) ToExtraction() (extract.Extraction, error) {
	obj, err := kb.ParseObject(r.Object)
	if err != nil {
		return extract.Extraction{}, err
	}
	return extract.Extraction{
		Triple: kb.Triple{
			Subject:   kb.EntityID(r.Subject),
			Predicate: kb.PredicateID(r.Predicate),
			Object:    obj,
		},
		Extractor:  r.Extractor,
		Pattern:    r.Pattern,
		URL:        r.URL,
		Site:       r.Site,
		Confidence: r.Conf,
	}, nil
}

// GoldRecord is the JSONL form of one gold label.
type GoldRecord struct {
	Subject   string `json:"s"`
	Predicate string `json:"p"`
	Object    string `json:"o"`
	Label     bool   `json:"label"`
}

// FusedRecord is the JSONL form of one fused triple.
type FusedRecord struct {
	Subject     string  `json:"s"`
	Predicate   string  `json:"p"`
	Object      string  `json:"o"`
	Probability float64 `json:"prob"`
	Predicted   bool    `json:"predicted"`
	Provenances int     `json:"provenances"`
	Extractors  int     `json:"extractors"`
}

// WriteExtractions writes extractions as JSONL.
func WriteExtractions(w io.Writer, xs []extract.Extraction) error {
	ew := NewExtractionWriter(w)
	if err := ew.WriteBatch(xs); err != nil {
		return err
	}
	return ew.Flush()
}

// ErrPartialLine reports a final line with no terminating newline — the
// half-written record of a producer appending to the feed right now. Offset
// is where the partial line starts, so a tailing consumer (kfuse -append)
// can process every complete record, remember Offset, and retry the read
// from there once the producer finishes the line.
type ErrPartialLine struct {
	// Offset is the byte offset of the first byte of the partial line.
	Offset int64
	// Line holds the partial bytes read so far.
	Line []byte
}

func (e *ErrPartialLine) Error() string {
	return fmt.Sprintf("kfio: partial line at byte offset %d (%d bytes so far)", e.Offset, len(e.Line))
}

// ExtractionReader iterates a JSONL extraction stream without loading the
// whole file — the reader side of an append-only extraction feed. Next
// returns one extraction at a time (io.EOF at end, *ErrPartialLine for a
// truncated final line); ReadBatch chunks the stream for the incremental
// compile pipeline (kfuse -append) and decodes each chunk on every core; Skip
// passes over records a resumed run has already consumed. Error attribution
// is hidden in files (it is simulator ground truth), so Extraction.Error is
// always ErrNone after a round trip.
//
// Each line is decoded by a RecordDecoder when it has the shape
// ExtractionWriter emits and by encoding/json otherwise — chosen per line
// from the line's bytes, with identical results. ReadBatch splits a batch of
// splitMinLines lines or more into one contiguous range per GOMAXPROCS
// worker, each decoded by that worker's own RecordDecoder straight into its
// slots of the batch: the records, their order and every error are the same
// at any worker count. Equal field values of the records one worker decoded
// (and of those Next returned) usually share one string.
type ExtractionReader struct {
	sc    *lineScanner
	decs  []RecordDecoder // one per worker, kept across batches; decs[0] also serves Next
	arena []byte          // the lines of the batch being decoded, back to back
	lines []lineSpan      // where each of them sits in arena and in the stream
	fast  int             // lines a RecordDecoder decoded; read by tests only

	// workers and splitMin stand in for GOMAXPROCS and splitMinLines when
	// positive; only tests set them.
	workers, splitMin int
}

// lineSpan locates one gathered line: arena[lo:hi], line no of the stream,
// starting at byte offset off.
type lineSpan struct {
	lo, hi, no int
	off        int64
}

// splitMinLines is the smallest batch ReadBatch splits across workers; a
// smaller one is decoded on the calling goroutine, where a fork would cost
// more than it saves. gatherMaxLines bounds the lines the arena holds: a
// larger batch is gathered and decoded in rounds of that many.
const (
	splitMinLines  = 1024
	gatherMaxLines = 8192
)

// NewExtractionReader returns a streaming reader over r.
func NewExtractionReader(r io.Reader) *ExtractionReader {
	return &ExtractionReader{sc: newScanner(r), decs: make([]RecordDecoder, 1)}
}

// parseLine decodes one JSONL extraction record, line no of its stream,
// starting at byte offset off; fast reports that d decoded it without
// encoding/json.
func parseLine(d *RecordDecoder, line []byte, no int, off int64) (x extract.Extraction, fast bool, err error) {
	rec, end, ok := d.Decode(line, 0)
	if fast = ok && skipSpace(line, end) == len(line); !fast {
		if rec, err = unmarshalRecord(line); err != nil {
			return x, false, fmt.Errorf("kfio: parse extraction line %d at byte offset %d: %w", no, off, err)
		}
	}
	if x, err = rec.ToExtraction(); err != nil {
		return x, fast, fmt.Errorf("kfio: extraction line %d at byte offset %d: %w", no, off, err)
	}
	return x, fast, nil
}

// unmarshalRecord is the generic decoder: the fallback for every line
// RecordDecoder leaves undecided and the reference it is tested against. It
// is its own function so that the record encoding/json needs on the heap is
// not allocated for lines that never reach it.
func unmarshalRecord(line []byte) (rec ExtractionRecord, err error) {
	err = json.Unmarshal(line, &rec)
	return rec, err
}

// nextLine returns the next complete non-blank line (valid until the next
// call), io.EOF after the last one, or *ErrPartialLine when the stream ends
// mid-line.
func (r *ExtractionReader) nextLine() ([]byte, error) {
	for r.sc.Scan() {
		line := r.sc.Bytes()
		if r.sc.partial {
			return nil, &ErrPartialLine{Offset: r.sc.start, Line: append([]byte(nil), line...)}
		}
		if len(line) > 0 {
			return line, nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Next returns the next extraction, io.EOF after the last one, or
// *ErrPartialLine when the stream ends mid-line. A complete record is one
// the producer terminated with a newline; an unterminated tail is never
// parsed — even when its bytes happen to form valid JSON, the record may
// still be growing. A line that does not decode is an error naming its line
// number and byte offset.
func (r *ExtractionReader) Next() (extract.Extraction, error) {
	line, err := r.nextLine()
	if err != nil {
		return extract.Extraction{}, err
	}
	x, fast, err := parseLine(&r.decs[0], line, r.sc.line, r.sc.start)
	if fast {
		r.fast++
	}
	return x, err
}

// Skip passes over the next n records without decoding them — what a resumed
// run does with the prefix its state already holds — and reports how many it
// skipped. A record is a complete non-blank line, exactly what Next would
// have tried to parse; fewer than n come back with io.EOF or *ErrPartialLine
// (same offsets as Next), and line numbers in later errors keep counting
// from the start of the stream.
func (r *ExtractionReader) Skip(n int) (skipped int, err error) {
	for skipped < n {
		if _, err := r.nextLine(); err != nil {
			return skipped, err
		}
		skipped++
	}
	return skipped, nil
}

// batchPrealloc caps the capacity ReadBatch reserves before it has read a
// byte (about 9 MB of records).
const batchPrealloc = 1 << 16

// ReadBatch returns up to max extractions (at least one unless the stream is
// exhausted). It returns io.EOF — possibly alongside a final short batch —
// when the stream ends, and *ErrPartialLine — alongside the complete records
// before it — when the stream ends mid-line; any other error aborts the
// batch, and a line that does not decode aborts it with the error Next would
// have returned for the first such line (the reader is then past every line
// the batch had gathered, not just past that one). max must be positive: a
// non-positive max would return an empty batch without ever reaching io.EOF,
// turning any read-until-EOF loop into a spin. max bounds the batch, not the
// allocation: capacity up to batchPrealloc records is reserved before reading
// and grows with the records actually read beyond that, so "everything in one
// batch" (a huge max) is safe on any feed.
func (r *ExtractionReader) ReadBatch(max int) ([]extract.Extraction, error) {
	if max <= 0 {
		return nil, fmt.Errorf("kfio: ReadBatch size must be positive, got %d", max)
	}
	out, err := r.appendBatch(make([]extract.Extraction, 0, min(max, batchPrealloc)), max)
	var partial *ErrPartialLine
	if err != nil && err != io.EOF && !errors.As(err, &partial) {
		return nil, err
	}
	return out, err
}

// appendBatch appends up to max records to out, gathered and decoded in
// rounds of at most gatherMaxLines lines, and returns what stopped it short
// of max: io.EOF, *ErrPartialLine (every complete record before it appended)
// or the earliest error in line order.
func (r *ExtractionReader) appendBatch(out []extract.Extraction, max int) ([]extract.Extraction, error) {
	for max > 0 {
		stop := r.gather(min(max, gatherMaxLines))
		max -= len(r.lines)
		var err error
		if out, err = r.decode(out); err != nil {
			return out, err
		}
		if stop != nil {
			return out, stop
		}
	}
	return out, nil
}

// gather reads up to n complete non-blank lines into the arena and returns
// what stopped it short of n: io.EOF, *ErrPartialLine or a read error.
func (r *ExtractionReader) gather(n int) error {
	r.arena, r.lines = r.arena[:0], r.lines[:0]
	for len(r.lines) < n {
		line, err := r.nextLine()
		if err != nil {
			return err
		}
		lo := len(r.arena)
		r.arena = append(doubling(r.arena, len(line)), line...)
		r.lines = append(doubling(r.lines, 1), lineSpan{lo: lo, hi: len(r.arena), no: r.sc.line, off: r.sc.start})
	}
	return nil
}

// doubling makes room for n more elements of s, at least doubling its
// capacity when it grows: a buffer that reaches its working size once then
// has allocated about twice that size, not the five times append's
// large-slice growth (1.25×) costs.
func doubling[S ~[]E, E any](s S, n int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// decode decodes the gathered lines onto the end of out — one contiguous
// range per worker, each worker stopping at its first error — and returns
// the error of the earliest range that has one, which is the earliest in
// line order.
func (r *ExtractionReader) decode(out []extract.Extraction) ([]extract.Extraction, error) {
	n, base := len(r.lines), len(out)
	out = slices.Grow(out, n)[:base+n]
	workers := 1
	if n >= cmp.Or(r.splitMin, splitMinLines) {
		workers = min(cmp.Or(r.workers, runtime.GOMAXPROCS(0)), n)
	}
	for len(r.decs) < workers {
		r.decs = append(r.decs, RecordDecoder{})
	}
	errs, fast := make([]error, workers), make([]int, workers)
	csr.ParallelRange(n, workers, func(w, lo, hi int) {
		d, nfast := &r.decs[w], 0
		defer func() { fast[w] = nfast }()
		for i, ln := range r.lines[lo:hi] {
			x, ok, err := parseLine(d, r.arena[ln.lo:ln.hi], ln.no, ln.off)
			if ok {
				nfast++
			}
			if err != nil {
				errs[w] = err
				return
			}
			out[base+lo+i] = x
		}
	})
	for _, f := range fast {
		r.fast += f
	}
	for _, err := range errs {
		if err != nil {
			return out[:base], err
		}
	}
	return out, nil
}

// ReadExtractions parses a whole JSONL extraction stream (see
// ExtractionReader for chunked iteration) the way ReadBatch does, in rounds
// decoded on every core. Unlike the streaming reader it accepts a parseable
// unterminated final line: a whole-file read means the producer is done, so a
// missing trailing newline is cosmetic, not a half-written record.
func ReadExtractions(r io.Reader) ([]extract.Extraction, error) {
	er := NewExtractionReader(r)
	out, err := er.appendBatch(nil, math.MaxInt)
	var partial *ErrPartialLine
	switch {
	case err == io.EOF:
		return out, nil
	case errors.As(err, &partial):
		x, _, perr := parseLine(&er.decs[0], partial.Line, er.sc.line, partial.Offset)
		if perr != nil {
			return nil, perr
		}
		return append(out, x), nil
	default:
		return nil, err
	}
}

// WriteGold writes gold labels for the given triples.
func WriteGold(w io.Writer, label func(kb.Triple) (bool, bool), triples []kb.Triple) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	seen := make(map[kb.Triple]bool, len(triples))
	for _, t := range triples {
		if seen[t] {
			continue
		}
		seen[t] = true
		l, ok := label(t)
		if !ok {
			continue
		}
		rec := GoldRecord{Subject: string(t.Subject), Predicate: string(t.Predicate), Object: t.Object.String(), Label: l}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("kfio: write gold: %w", err)
		}
	}
	return bw.Flush()
}

// ReadGold parses JSONL gold labels into a labeling function over the read
// set (triples absent from the file are unlabeled).
func ReadGold(r io.Reader) (func(kb.Triple) (bool, bool), int, error) {
	labels := make(map[kb.Triple]bool)
	sc := newScanner(r)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec GoldRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, 0, fmt.Errorf("kfio: parse gold line %d: %w", sc.line, err)
		}
		obj, err := kb.ParseObject(rec.Object)
		if err != nil {
			return nil, 0, fmt.Errorf("kfio: gold line %d: %w", sc.line, err)
		}
		t := kb.Triple{Subject: kb.EntityID(rec.Subject), Predicate: kb.PredicateID(rec.Predicate), Object: obj}
		labels[t] = rec.Label
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return func(t kb.Triple) (bool, bool) {
		l, ok := labels[t]
		return l, ok
	}, len(labels), nil
}

// WriteFused writes fused triples as JSONL: one FusedRecord per row, byte for
// byte what encoding/json writes for it, appended field by field into one
// reused row buffer (encode.go). A probability that is not a number has no
// JSON form and is an error.
func WriteFused(w io.Writer, res *fusion.Result) error {
	bw := bufio.NewWriter(w)
	var row []byte
	for i := range res.Triples {
		f := &res.Triples[i]
		row = appendJSONTriple(row[:0], f.Triple)
		row = append(row, `,"prob":`...)
		var err error
		if row, err = appendJSONFloat(row, f.Probability); err != nil {
			return fmt.Errorf("kfio: write fused: %w", err)
		}
		row = append(row, `,"predicted":`...)
		row = strconv.AppendBool(row, f.Predicted)
		row = append(row, `,"provenances":`...)
		row = strconv.AppendInt(row, int64(f.Provenances), 10)
		row = append(row, `,"extractors":`...)
		row = strconv.AppendInt(row, int64(f.Extractors), 10)
		row = append(row, '}', '\n')
		if _, err := bw.Write(row); err != nil {
			return fmt.Errorf("kfio: write fused: %w", err)
		}
	}
	return bw.Flush()
}

// FusedReader iterates a JSONL fused-triple stream without loading the whole
// file, so evaluation (kfeval) and queries (kfquery) stream instead of
// materializing the result.
type FusedReader struct {
	sc *lineScanner
}

// NewFusedReader returns a streaming reader over r.
func NewFusedReader(r io.Reader) *FusedReader {
	return &FusedReader{sc: newScanner(r)}
}

// Next returns the next fused triple, io.EOF after the last one, or
// *ErrPartialLine when the stream ends mid-line: WriteFused terminates every
// row, so an unterminated tail is a torn file, never a row. A line that does
// not parse is an error naming its line number and byte offset.
func (r *FusedReader) Next() (fusion.FusedTriple, error) {
	for r.sc.Scan() {
		line := r.sc.Bytes()
		if r.sc.partial {
			return fusion.FusedTriple{}, &ErrPartialLine{Offset: r.sc.start, Line: append([]byte(nil), line...)}
		}
		if len(line) == 0 {
			continue
		}
		var rec FusedRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fusion.FusedTriple{}, fmt.Errorf("kfio: parse fused line %d at byte offset %d: %w", r.sc.line, r.sc.start, err)
		}
		obj, err := kb.ParseObject(rec.Object)
		if err != nil {
			return fusion.FusedTriple{}, fmt.Errorf("kfio: fused line %d at byte offset %d: %w", r.sc.line, r.sc.start, err)
		}
		return fusion.FusedTriple{
			Triple: kb.Triple{
				Subject:   kb.EntityID(rec.Subject),
				Predicate: kb.PredicateID(rec.Predicate),
				Object:    obj,
			},
			Probability: rec.Probability,
			Predicted:   rec.Predicted,
			Provenances: rec.Provenances,
			Extractors:  rec.Extractors,
		}, nil
	}
	if err := r.sc.Err(); err != nil {
		return fusion.FusedTriple{}, err
	}
	return fusion.FusedTriple{}, io.EOF
}

// ReadFused parses a whole JSONL fused-triple stream (see FusedReader for
// chunked iteration and for what counts as a torn or malformed line).
func ReadFused(r io.Reader) (*fusion.Result, error) {
	res := &fusion.Result{}
	fr := NewFusedReader(r)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		if !f.Predicted {
			res.Unpredicted++
		}
		res.Triples = append(res.Triples, f)
	}
}

// maxLineLen bounds a single JSONL line, matching the old bufio.Scanner cap.
const maxLineLen = 8 * 1024 * 1024

// lineScanner yields lines with a line counter, the byte offset each line
// starts at, and a flag for an unterminated final line — the tell that a
// producer is mid-append. The \n (and a preceding \r) is stripped from the
// yielded bytes.
type lineScanner struct {
	r       *bufio.Reader
	cur     []byte // current line: a view of r's buffer, or buf
	buf     []byte // stitches a line longer than r's buffer
	line    int
	start   int64 // byte offset of the current line's first byte
	next    int64 // byte offset of the next unread byte
	partial bool  // current line had no terminating newline (stream tail)
	err     error
}

func newScanner(r io.Reader) *lineScanner {
	return &lineScanner{r: bufio.NewReaderSize(r, 64*1024)}
}

func (s *lineScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	s.start = s.next
	s.partial = false
	line, err := s.r.ReadSlice('\n')
	s.next += int64(len(line))
	if err == bufio.ErrBufferFull {
		// A line longer than the bufio buffer arrives in pieces and is
		// stitched together in s.buf; every other line is used where
		// ReadSlice left it.
		s.buf = append(s.buf[:0], line...)
		for err == bufio.ErrBufferFull && len(s.buf) <= maxLineLen {
			line, err = s.r.ReadSlice('\n')
			s.next += int64(len(line))
			s.buf = append(s.buf, line...)
		}
		line = s.buf
	}
	if len(line) > maxLineLen {
		s.err = fmt.Errorf("kfio: line %d exceeds %d bytes", s.line+1, maxLineLen)
		return false
	}
	switch err {
	case nil:
		line = line[:len(line)-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
	case io.EOF:
		if len(line) == 0 {
			return false
		}
		s.partial = true
	default:
		s.err = err
		return false
	}
	s.cur = line
	s.line++
	return true
}

// Bytes returns the current line, valid until the next Scan.
func (s *lineScanner) Bytes() []byte { return s.cur }

// Err reports the first non-EOF error the scanner hit.
func (s *lineScanner) Err() error { return s.err }
