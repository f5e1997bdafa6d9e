package extract

import (
	"bytes"
	"slices"
	"testing"
)

// TestExtractSnapshotRoundTrip checks the durability contract at the
// extraction layer: a decoded snapshot, its derived arrays rebuilt through
// the compile tail, is field-identical to the encoded graph and re-encodes to
// the same bytes.
func TestExtractSnapshotRoundTrip(t *testing.T) {
	for _, siteLevel := range []bool{false, true} {
		xs := appendStream(400)
		g := Compile(xs, siteLevel)

		var buf bytes.Buffer
		if err := g.EncodeSnapshot(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		appendGraphsEqual(t, "decoded", dec, g)
		if dec.gen != g.gen {
			t.Fatalf("gen = %d, want %d", dec.gen, g.gen)
		}

		var buf2 bytes.Buffer
		if err := dec.EncodeSnapshot(&buf2); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("re-encoding a decoded snapshot changed the bytes")
		}
	}
}

// TestExtractSnapshotAppendMatchesOriginal checks that a decoded generation
// accepts Append (rebuilding the interning index) and produces the exact
// graph the in-memory generation does.
func TestExtractSnapshotAppendMatchesOriginal(t *testing.T) {
	xs := appendStream(500)
	split := len(xs) / 2
	base := Compile(xs[:split], true)

	var buf bytes.Buffer
	if err := base.EncodeSnapshot(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	want := base.Append(xs[split:])
	got := dec.Append(xs[split:])
	appendGraphsEqual(t, "appended", got, want)
	if got.gen != want.gen {
		t.Fatalf("gen = %d, want %d", got.gen, want.gen)
	}
}

// TestExtractSnapshotDecodeCorrupt truncates and bit-flips an encoded
// snapshot and asserts decode never panics (checksums above this layer catch
// silent corruption; this is about decoder memory safety).
func TestExtractSnapshotDecodeCorrupt(t *testing.T) {
	g := Compile(appendStream(150), false)
	var buf bytes.Buffer
	if err := g.EncodeSnapshot(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := DecodeSnapshot(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for off := 0; off < len(full); off += 11 {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x41
		_, _ = DecodeSnapshot(mut) // must not panic
	}
}

// TestExtractSnapshotRejectsInconsistentLists damages the extractor lists of
// an encoded graph within ID range — a source listing an extractor twice, a
// statement naming an extractor its source does not list, a source listing
// one none of its statements names — and asserts each fails to decode: the
// derived incidence would lose a hit or invent misses.
func TestExtractSnapshotRejectsInconsistentLists(t *testing.T) {
	g := Compile(appendStream(400), false)
	rows := func(start, flat []int32) [][]int32 {
		out := make([][]int32, len(start)-1)
		for i := range out {
			out[i] = slices.Clone(flat[start[i]:start[i+1]])
		}
		return out
	}
	csrOf := func(rows [][]int32) (start, flat []int32) {
		start = []int32{0}
		for _, r := range rows {
			flat = append(flat, r...)
			start = append(start, int32(len(flat)))
		}
		return start, flat
	}
	s0 := g.stSource[0]
	other := int32(-1) // an extractor source s0 does not list
	for x := range g.extractors {
		if !containsID(g.SourceExtractors(s0), int32(x)) {
			other = int32(x)
			break
		}
	}
	if other < 0 {
		t.Fatal("scenario broken: the first statement's source lists every extractor")
	}
	for name, damage := range map[string]func(st, src [][]int32){
		"a source listing an extractor twice":            func(_, src [][]int32) { src[s0] = append(src[s0], src[s0][0]) },
		"a statement naming an unlisted extractor":       func(st, _ [][]int32) { st[0] = append(st[0], other) },
		"a source listing an extractor no statement has": func(_, src [][]int32) { src[s0] = append(src[s0], other) },
	} {
		bad := *g.graph
		st, src := rows(g.stExtStart, g.stExts), rows(g.srcExtStart, g.srcExts)
		damage(st, src)
		bad.stExtStart, bad.stExts = csrOf(st)
		bad.srcExtStart, bad.srcExts = csrOf(src)
		var buf bytes.Buffer
		if err := (&Compiled{graph: &bad}).EncodeSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
