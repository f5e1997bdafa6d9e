package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(7)
	w.U32(0xdeadbeef)
	w.U64(1 << 62)
	w.Uvarint(300)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.String("hello")
	w.String("")
	w.Strings([]string{"a", "bb", ""})
	w.Int32s([]int32{-1, 0, 1 << 30})
	w.F64s([]float64{0, -1.5, math.Inf(1)})
	w.Bools([]bool{true, false, true})
	if err := w.Err(); err != nil {
		t.Fatalf("write: %v", err)
	}
	if w.Len() != int64(buf.Len()) {
		t.Fatalf("Len = %d, buffer has %d", w.Len(), buf.Len())
	}

	r := NewReader(buf.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<62 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Bool(); !got {
		t.Errorf("Bool #1 = %v", got)
	}
	if got := r.Bool(); got {
		t.Errorf("Bool #2 = %v", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := r.Strings(); len(got) != 3 || got[0] != "a" || got[1] != "bb" || got[2] != "" {
		t.Errorf("Strings = %v", got)
	}
	if got := r.Int32s(); len(got) != 3 || got[0] != -1 || got[1] != 0 || got[2] != 1<<30 {
		t.Errorf("Int32s = %v", got)
	}
	if got := r.F64s(); len(got) != 3 || got[0] != 0 || got[1] != -1.5 || !math.IsInf(got[2], 1) {
		t.Errorf("F64s = %v", got)
	}
	if got := r.Bools(); len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Errorf("Bools = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("read: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int32s(make([]int32, 100))
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Int32s()
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

// TestHugeLength checks that a corrupt length field fails cleanly instead of
// allocating or mis-slicing.
func TestHugeLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(math.MaxUint64) // claimed length, no payload
	data := buf.Bytes()

	for name, read := range map[string]func(*Reader){
		"String": func(r *Reader) { _ = r.String() },
		"Int32s": func(r *Reader) { r.Int32s() },
		"F64s":   func(r *Reader) { r.F64s() },
		"Bools":  func(r *Reader) { r.Bools() },
		"Strings": func(r *Reader) {
			r.Strings()
		},
	} {
		r := NewReader(data)
		read(r)
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, r.Err())
		}
	}
}

func TestNegativeLength(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	w.Int(-1)
	if w.Err() == nil {
		t.Fatal("want error for negative length")
	}
}

func TestErrorLatch(t *testing.T) {
	r := NewReader([]byte{1})
	r.U32() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("want error")
	}
	r.U8() // would succeed on fresh reader, must stay failed
	if r.Err() != first {
		t.Fatal("error not latched")
	}
}

// TestValidationLatches checks the decode-side validators: each accepts the
// well-formed case, latches a failure as the reader's error, and never
// replaces an error latched earlier (the first failure is the diagnosis).
func TestValidationLatches(t *testing.T) {
	csr := []int32{0, 2, 2, 5}
	for _, tc := range []struct {
		name  string
		check func(r *Reader)
		want  string // substring of the latched error; "" = accepted
	}{
		{"version ok", func(r *Reader) { r.Version(3) }, ""},
		{"version skew", func(r *Reader) { r.Version(4) }, "version 3, want 4"},
		{"len ok", func(r *Reader) { r.CheckLen("col", 5, 5) }, ""},
		{"len short", func(r *Reader) { r.CheckLen("col", 4, 5) }, "col has 4 entries, want 5"},
		{"ids ok", func(r *Reader) { r.CheckIDs("ids", []int32{0, 4}, 5) }, ""},
		{"ids high", func(r *Reader) { r.CheckIDs("ids", []int32{0, 5}, 5) }, "ids[1] = 5 out of range"},
		{"ids negative", func(r *Reader) { r.CheckIDs("ids", []int32{-1}, 5) }, "ids[0] = -1 out of range"},
		{"csr ok", func(r *Reader) { r.CheckCSR("start", csr, 3, 5) }, ""},
		{"csr empty", func(r *Reader) { r.CheckCSR("start", nil, 0, 0) }, ""},
		{"csr group count", func(r *Reader) { r.CheckCSR("start", csr, 4, 5) }, "start has 4 offsets, want 5"},
		{"csr origin", func(r *Reader) { r.CheckCSR("start", []int32{1, 2, 2, 5}, 3, 5) }, "start[0] = 1"},
		{"csr decreasing", func(r *Reader) { r.CheckCSR("start", []int32{0, 3, 2, 5}, 3, 5) }, "decreases"},
		{"csr flat length", func(r *Reader) { r.CheckCSR("start", csr, 3, 6) }, "ends at 5, want 6"},
	} {
		r := NewReader([]byte{3})
		tc.check(r)
		switch err := r.Err(); {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}

		first := errors.New("first failure")
		r = NewReader(nil)
		r.Fail(first)
		tc.check(r)
		if r.Err() != first {
			t.Errorf("%s: replaced the latched error with %v", tc.name, r.Err())
		}
	}
}

// plainWriter hides bytes.Buffer's WriteString, so the Writer takes its
// copy-buffer string path; it also counts a failing destination's budget.
type plainWriter struct {
	buf    bytes.Buffer
	budget int // bytes accepted before writes fail; < 0 = unlimited
}

func (p *plainWriter) Write(b []byte) (int, error) {
	if p.budget >= 0 && len(b) > p.budget {
		n, _ := p.buf.Write(b[:p.budget])
		p.budget = 0
		return n, errors.New("disk full")
	}
	if p.budget >= 0 {
		p.budget -= len(b)
	}
	return p.buf.Write(b)
}

// TestWriterAllocatesNothingPerValue pins the two string paths to the same
// bytes — WriteString on a destination that has it, the reusable copy buffer
// on one that does not — and both, with every scalar, to zero allocations per
// value: a snapshot writes hundreds of thousands of each.
func TestWriterAllocatesNothingPerValue(t *testing.T) {
	encode := func(w *Writer) {
		w.U8(7)
		w.U32(0xdeadbeef)
		w.U64(1 << 62)
		w.Uvarint(1 << 40)
		w.Int(42)
		w.Bool(true)
		w.F64(math.Pi)
		w.String("a provenance key|http://site/page")
		w.String("")
	}
	var fast bytes.Buffer
	slow := &plainWriter{budget: -1}
	fw, sw := NewWriter(&fast), NewWriter(slow)
	encode(fw)
	encode(sw)
	if fw.Err() != nil || sw.Err() != nil || !bytes.Equal(fast.Bytes(), slow.buf.Bytes()) || fw.Len() != sw.Len() {
		t.Fatalf("the WriteString path wrote %d bytes (%v), the copy path %d (%v); contents equal: %v",
			fw.Len(), fw.Err(), sw.Len(), sw.Err(), bytes.Equal(fast.Bytes(), slow.buf.Bytes()))
	}
	fast.Grow(1 << 16)
	slow.buf.Grow(1 << 16)
	for name, w := range map[string]*Writer{"WriteString": fw, "copy buffer": sw} {
		if n := testing.AllocsPerRun(50, func() { encode(w) }); n != 0 {
			t.Errorf("%s destination: %v allocations per ten values, want 0", name, n)
		}
	}

	// A failing destination latches on either path, and Len counts only the
	// bytes that landed.
	for _, budget := range []int{0, 1, 5} {
		pw := &plainWriter{budget: budget}
		w := NewWriter(pw)
		w.String("hello, world")
		w.U32(1)
		if w.Err() == nil || w.Len() != int64(budget) || pw.buf.Len() != budget {
			t.Errorf("budget %d: err %v, Len %d, %d bytes landed", budget, w.Err(), w.Len(), pw.buf.Len())
		}
	}
}
