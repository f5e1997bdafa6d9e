// Package wire is the little-endian binary codec shared by the snapshot
// serializers (fusion, extract, twolayer) and the durable generation store
// (internal/genstore). It exists so every binary on-disk encoding in the
// repository speaks one dialect: uvarint lengths, fixed-width little-endian
// scalars, and length-prefixed bulk slices written as raw memory-order bytes.
//
// The Writer latches its first error and counts bytes; the Reader decodes
// from an in-memory buffer and is safe on adversarial input — every length
// is bounds-checked against the remaining bytes BEFORE any allocation, so a
// corrupt or fuzzed length field fails with ErrTruncated instead of
// attempting a multi-gigabyte make.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrTruncated reports a read past the end of the buffer — the unified
// failure for truncated files, corrupt length fields and malformed varints.
var ErrTruncated = errors.New("wire: truncated input")

// ErrVersion reports a payload whose leading format-version byte (Version)
// names another layout: input another build wrote, not damaged input.
var ErrVersion = errors.New("wire: unsupported version")

// Writer encodes values into an io.Writer, latching the first error and
// counting bytes written (successful bytes only). Scalars and strings cost no
// allocation: scalars are staged in a scratch array the Writer owns (a local
// one would escape through the io.Writer call, once per value), and a string
// goes to the destination's WriteString when it has one — bytes.Buffer,
// bufio.Writer and os.File do — or through one reusable copy buffer.
type Writer struct {
	w   io.Writer
	sw  io.StringWriter // w's WriteString, nil if it has none
	n   int64
	err error
	// scratch stages one scalar; strbuf one string for a w without WriteString.
	scratch [binary.MaxVarintLen64]byte
	strbuf  []byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	sw, _ := w.(io.StringWriter)
	return &Writer{w: w, sw: sw}
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// Len returns the number of bytes successfully written.
func (w *Writer) Len() int64 { return w.n }

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.n += int64(n)
	w.err = err
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.scratch[0] = v
	w.write(w.scratch[:1])
}

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.scratch[:], v)
	w.write(w.scratch[:4])
}

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.write(w.scratch[:8])
}

// Uvarint writes a varint-encoded unsigned integer.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.write(w.scratch[:n])
}

// Int asserts v is non-negative and writes it as a uvarint.
func (w *Writer) Int(v int) {
	if v < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("wire: negative length %d", v)
		}
		return
	}
	w.Uvarint(uint64(v))
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.sw == nil {
		w.strbuf = append(w.strbuf[:0], s...)
		w.write(w.strbuf)
		return
	}
	if w.err != nil {
		return
	}
	n, err := w.sw.WriteString(s)
	w.n += int64(n)
	w.err = err
}

// Bytes writes raw bytes with no prefix.
func (w *Writer) Bytes(b []byte) { w.write(b) }

// Strings writes a length-prefixed slice of length-prefixed strings.
func (w *Writer) Strings(s []string) {
	w.Int(len(s))
	for _, v := range s {
		w.String(v)
	}
}

// Int32s writes a length-prefixed []int32 as raw little-endian words.
func (w *Writer) Int32s(s []int32) {
	w.Int(len(s))
	if w.err != nil {
		return
	}
	buf := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	w.write(buf)
}

// F64s writes a length-prefixed []float64 as raw little-endian bit patterns.
func (w *Writer) F64s(s []float64) {
	w.Int(len(s))
	if w.err != nil {
		return
	}
	buf := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	w.write(buf)
}

// Bools writes a length-prefixed []bool, one byte per element.
func (w *Writer) Bools(s []bool) {
	w.Int(len(s))
	if w.err != nil {
		return
	}
	buf := make([]byte, len(s))
	for i, v := range s {
		if v {
			buf[i] = 1
		}
	}
	w.write(buf)
}

// Reader decodes values from a byte slice, latching the first error — a
// truncation, or a failed Version/CheckLen/CheckIDs/CheckCSR validation — so
// a decoder is a straight-line field list with one Err return. All length
// prefixes are validated against the remaining input before any allocation
// or slicing happens.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Pos returns the current decode offset.
func (r *Reader) Pos() int { return r.pos }

// Remaining reports the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

func (r *Reader) fail() { r.Fail(fmt.Errorf("%w at offset %d", ErrTruncated, r.pos)) }

// Fail latches err as the decode error unless one is already latched — how a
// decoder reports a structural check of its own (a count beyond the input, an
// unparsable field) through the same single Err return as a truncation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Version reads the leading format-version byte and latches a mismatch, so a
// payload written by another layout is rejected before any field is trusted.
func (r *Reader) Version(want uint8) {
	if v := r.U8(); v != want {
		r.Fail(fmt.Errorf("%w %d, want %d", ErrVersion, v, want))
	}
}

// CheckLen latches an error unless a decoded column has exactly want entries.
func (r *Reader) CheckLen(name string, got, want int) {
	if got != want {
		r.Fail(fmt.Errorf("wire: %s has %d entries, want %d", name, got, want))
	}
}

// CheckIDs latches an error unless every element of ids lies in [0, n) — the
// decode-side guard that keeps a corrupt but well-framed ID table from
// indexing out of bounds later.
func (r *Reader) CheckIDs(name string, ids []int32, n int) {
	for i, v := range ids {
		if v < 0 || int(v) >= n {
			r.Fail(fmt.Errorf("wire: %s[%d] = %d out of range [0,%d)", name, i, v, n))
			return
		}
	}
}

// CheckCSR latches an error unless start is a valid CSR span table:
// len(start) == nGroups+1, start[0] == 0, offsets non-decreasing, and the
// final offset equal to flatLen.
func (r *Reader) CheckCSR(name string, start []int32, nGroups, flatLen int) {
	if nGroups == 0 && flatLen == 0 && len(start) == 0 {
		return // empty table round-trips as nil
	}
	if len(start) != nGroups+1 {
		r.Fail(fmt.Errorf("wire: %s has %d offsets, want %d", name, len(start), nGroups+1))
		return
	}
	if start[0] != 0 {
		r.Fail(fmt.Errorf("wire: %s[0] = %d, want 0", name, start[0]))
	}
	for i := 1; i < len(start); i++ {
		if start[i] < start[i-1] {
			r.Fail(fmt.Errorf("wire: %s[%d] = %d decreases from %d", name, i, start[i], start[i-1]))
			return
		}
	}
	if int(start[nGroups]) != flatLen {
		r.Fail(fmt.Errorf("wire: %s ends at %d, want %d", name, start[nGroups], flatLen))
	}
}

// take returns the next n bytes, or nil after latching ErrTruncated. n is
// validated as a uint64 so corrupt 2^63-scale lengths cannot overflow the
// bounds check.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) {
		r.fail()
		return nil
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads a varint-encoded unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

// Int reads a uvarint and validates it fits in a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if r.err == nil && v > math.MaxInt32 {
		// Every slice this codec length-prefixes is bounded by the int32 ID
		// spaces of the compiled graphs; anything larger is corruption.
		r.fail()
		return 0
	}
	return int(v)
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Strings reads a length-prefixed slice of strings. A nil slice round-trips
// as nil.
func (r *Reader) Strings() []string {
	n := r.Int()
	if r.err != nil || n == 0 {
		return nil
	}
	// Each element costs at least one length byte, so n is bounded by the
	// remaining input — checked before allocating.
	if n > r.Remaining() {
		r.fail()
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// Int32s reads a length-prefixed []int32.
func (r *Reader) Int32s() []int32 {
	n := r.Int()
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.take(uint64(n) * 4)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.Int()
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.take(uint64(n) * 8)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Bools reads a length-prefixed []bool.
func (r *Reader) Bools() []bool {
	n := r.Int()
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.take(uint64(n))
	if b == nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = b[i] != 0
	}
	return out
}
