package fusion

import (
	"bytes"
	"reflect"
	"testing"
)

// TestSnapshotRoundTrip checks the durability contract at the claim layer: a
// decoded snapshot is field-identical to the encoded graph, re-encodes to the
// same bytes (canonical form), and behaves bit-identically under Fuse.
func TestSnapshotRoundTrip(t *testing.T) {
	claims := randomClaims(41, 500)
	c := MustCompile(claims)

	var buf bytes.Buffer
	if err := c.EncodeSnapshot(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	graphsEqual(t, "decoded", dec.g, c.g)
	if dec.gen != c.gen {
		t.Fatalf("gen = %d, want %d", dec.gen, c.gen)
	}

	var buf2 bytes.Buffer
	if err := dec.EncodeSnapshot(&buf2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoding a decoded snapshot changed the bytes")
	}

	want, err := c.Fuse(PopAccuConfig())
	if err != nil {
		t.Fatalf("fuse original: %v", err)
	}
	got, err := dec.Fuse(PopAccuConfig())
	if err != nil {
		t.Fatalf("fuse decoded: %v", err)
	}
	assertBitIdentical(t, "decoded graph vs the original", got, want)
}

// TestSnapshotAppendMatchesOriginal checks that a decoded generation accepts
// Append (rebuilding the interning index from the graph) and produces the
// exact graph the in-memory generation does.
func TestSnapshotAppendMatchesOriginal(t *testing.T) {
	claims := randomClaims(17, 400)
	split := len(claims) / 2
	base := MustCompile(claims[:split])

	var buf bytes.Buffer
	if err := base.EncodeSnapshot(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	want := base.MustAppend(claims[split:])
	got := dec.MustAppend(claims[split:])
	graphsEqual(t, "appended", got.g, want.g)
	if got.gen != want.gen {
		t.Fatalf("gen = %d, want %d", got.gen, want.gen)
	}
}

// TestSnapshotDecodeCorrupt truncates and bit-flips an encoded snapshot at
// every offset and asserts decode fails cleanly (no panic) or — for flips the
// format cannot distinguish (e.g. a confidence bit) — succeeds without
// violating graph invariants. Checksums above this layer catch silent flips;
// this test is about memory safety of the decoder itself.
func TestSnapshotDecodeCorrupt(t *testing.T) {
	c := MustCompile(randomClaims(7, 120))
	var buf bytes.Buffer
	if err := c.EncodeSnapshot(&buf); err != nil {
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
		dec, err := DecodeSnapshot(mut) // must not panic
		if err != nil || dec == nil {
			continue
		}
		// Whatever decoded must be internally consistent enough to fuse.
		if _, err := dec.Fuse(VoteConfig()); err != nil {
			t.Fatalf("bit flip at %d produced a graph that fails to fuse: %v", off, err)
		}
	}
}

// TestSeedClaimStream checks that a stream seeded from a restored
// generation, and the restored generation's own AppendExtractions, continue
// exactly where the original stream left off.
func TestSeedClaimStream(t *testing.T) {
	xs := benchExtractions(300)
	gran := GranExtractorSitePred

	fresh := NewClaimStream(gran)
	first := fresh.Add(xs[:200])
	var buf bytes.Buffer
	if err := MustCompile(first).EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	seeded := SeedClaimStream(gran, c)
	want := fresh.Add(xs[200:])
	if got := seeded.Add(xs[200:]); !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded stream emitted %d claims, fresh emitted %d (or contents differ)", len(got), len(want))
	}
	next, err := c.AppendExtractions(xs[200:], gran)
	if err != nil {
		t.Fatal(err)
	}
	if got := claimsOf(next)[len(first):]; !reflect.DeepEqual(got, want) {
		t.Fatalf("the restored graph appended %d claims, the stream emitted %d (or contents differ)", len(got), len(want))
	}
}
