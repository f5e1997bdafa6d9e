package genstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"testing"

	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/twolayer"
	"kfusion/internal/wire"
)

// fuzzSeedState builds a small real state of chain and returns its encoded
// snapshot and a journal with two records — the honest corpus the mutators
// start from.
func fuzzSeedState(chain *Chain) (snap, journal []byte) {
	feed := testFeed(40)
	st := &State{}
	if err := chain.Apply(st, feed[:20]); err != nil {
		panic(err)
	}
	st.Consumed, st.Batches = 20, 1
	snap, err := encodeSnapshot(st, 0)
	if err != nil {
		panic(err)
	}
	journal = journalHeader()
	journal = append(journal, encodeRecord(1, feed[20:30])...)
	journal = append(journal, encodeRecord(2, feed[30:])...)
	return snap, journal
}

// damagedPosteriors returns snap with its posterior section replaced by
// columns no run of its graphs produces — a short or long column, a NaN or
// out-of-range probability, an accuracy of -0.1 — every other section and
// every checksum intact, so only the posterior decoder stands between them
// and a recovered state. name says what each one holds.
func damagedPosteriors(t testing.TB, snap []byte) (name []string, damaged [][]byte) {
	st, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	post, acc, err := st.storedPosterior()
	if err != nil || post == nil || post.Len() < 2 || len(acc) == 0 {
		t.Fatalf("no posterior to damage (err %v)", err)
	}
	prob := make([]float64, post.Len())
	for i := range prob {
		prob[i] = post.Prob(i)
	}
	add := func(what string, damage func(prob, acc []float64) ([]float64, []float64)) {
		p, a := damage(slices.Clone(prob), slices.Clone(acc))
		var b bytes.Buffer
		w := wire.NewWriter(&b)
		w.Int(post.Rounds)
		w.F64s(p)
		w.F64s(a)
		name = append(name, what)
		damaged = append(damaged, withSection(t, snap, secResult, b.Bytes()))
	}
	add("a short probability column", func(p, a []float64) ([]float64, []float64) { return p[:len(p)-1], a })
	add("a long accuracy column", func(p, a []float64) ([]float64, []float64) { return p, append(a, 0.5) })
	add("a NaN probability", func(p, a []float64) ([]float64, []float64) { p[1] = math.NaN(); return p, a })
	add("a probability of 1.5", func(p, a []float64) ([]float64, []float64) { p[0] = 1.5; return p, a })
	add("an accuracy of -0.1", func(p, a []float64) ([]float64, []float64) { a[len(a)-1] = -0.1; return p, a })
	return name, damaged
}

// damagedGraphs returns snap with its claim graph or extraction graph section
// replaced by primary columns no compile produces — an out-of-range ID, a
// short column, and for the extraction graph a decreasing extractor-list span
// — every other section and every checksum intact, so only the graph decoders
// stand between them and a recovered state; and a two-layer snapshot whose
// meta section names the other source level. name says what each one holds.
func damagedGraphs(t testing.TB, snap []byte) (name []string, damaged [][]byte) {
	st, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// A graph section is a head of key tables (and the claim confidences),
	// then its int32 columns: tripleOfClaim is the claim graph's last;
	// stSource, stTriple and stExtStart are the extraction graph's first three.
	split := func(encode func(io.Writer) error, nCols int, head func(*wire.Reader)) ([]byte, [][]int32) {
		var b bytes.Buffer
		if err := encode(&b); err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(b.Bytes())
		head(r)
		pos := r.Pos()
		cols := make([][]int32, nCols)
		for i := range cols {
			cols[i] = r.Int32s()
		}
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("graph section does not split (%v, %d trailing bytes)", r.Err(), r.Remaining())
		}
		return b.Bytes()[:pos], cols
	}
	add := func(id uint32, what string, head []byte, cols [][]int32, damage func([][]int32)) {
		cols = slices.Clone(cols)
		for i := range cols {
			cols[i] = slices.Clone(cols[i])
		}
		damage(cols)
		b := bytes.NewBuffer(slices.Clone(head))
		w := wire.NewWriter(b)
		for _, c := range cols {
			w.Int32s(c)
		}
		name = append(name, what)
		damaged = append(damaged, withSection(t, snap, id, b.Bytes()))
	}
	if c := st.Claim; c != nil {
		head, cols := split(c.EncodeSnapshot, 3, func(r *wire.Reader) {
			r.U8()
			r.Int()
			r.Strings()
			r.Strings()
			kb.DecodeTriples(r)
			r.F64s()
		})
		add(secClaim, "a claim of an out-of-range triple", head, cols, func(c [][]int32) { c[2][0] = int32(st.Claim.NumTriples()) })
		add(secClaim, "a short provenance column", head, cols, func(c [][]int32) { c[1] = c[1][:len(c[1])-1] })
	}
	if g := st.Ext; g != nil {
		head, cols := split(g.EncodeSnapshot, 6, func(r *wire.Reader) {
			r.U8()
			r.Int()
			r.Bool()
			r.Strings()
			r.Strings()
			kb.DecodeTriples(r)
		})
		add(secExt, "a statement of an out-of-range source", head, cols, func(c [][]int32) { c[0][0] = int32(g.NumSources()) })
		add(secExt, "a decreasing extractor-list span", head, cols, func(c [][]int32) { c[2][1] = c[2][len(c[2])-1] + 1 })
		add(secExt, "a short statement → triple column", head, cols, func(c [][]int32) { c[1] = c[1][:len(c[1])-1] })
		// The state's meta section names the other source level.
		st.SiteLevel = !st.SiteLevel
		b, err := encodeSnapshot(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		name = append(name, "an extraction graph of another source level than the state's")
		damaged = append(damaged, b)
	}
	return name, damaged
}

// withSection returns snap with section id's payload replaced, the index and
// its checksums rewritten to match.
func withSection(t testing.TB, snap []byte, id uint32, payload []byte) []byte {
	indexOff := binary.LittleEndian.Uint64(snap[len(snap)-12:])
	ir := wire.NewReader(snap[indexOff : len(snap)-12])
	out := append([]byte(nil), snap[:5]...)
	var secs []section
	for n := ir.U32(); n > 0; n-- {
		sid, off, size, _ := ir.U32(), ir.U64(), ir.U64(), ir.U32()
		b := snap[off : off+size]
		if sid == id {
			b = payload
		}
		secs = append(secs, section{id: sid, off: uint64(len(out)), len: uint64(len(b)), crc: crc32.Checksum(b, castagnoli)})
		out = append(out, b...)
	}
	if ir.Err() != nil {
		t.Fatal(ir.Err())
	}
	var tail bytes.Buffer
	w := wire.NewWriter(&tail)
	w.U32(uint32(len(secs)))
	for _, sec := range secs {
		w.U32(sec.id)
		w.U64(sec.off)
		w.U64(sec.len)
		w.U32(sec.crc)
	}
	w.U64(uint64(len(out)))
	w.U32(snapMagic)
	return append(out, tail.Bytes()...)
}

// FuzzSnapshotDecode asserts decodeSnapshot never panics, that any input it
// accepts re-encodes and decodes stably (no lossy acceptance), and that every
// graph it decodes fuses: the claim graphs under VoteConfig, the extraction
// graph for one two-layer round. The seeds past the first four are a K=3
// claim snapshot, so the mutators reach the shard section and K, a two-layer
// one, and a K=1 claim, a K=3 claim and a two-layer snapshot whose posterior
// columns (damagedPosteriors) or graph columns (damagedGraphs) are damaged,
// which must decode to ErrCorrupt.
func FuzzSnapshotDecode(f *testing.F) {
	snap, _ := fuzzSeedState(testChain(1))
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	sharded, _ := fuzzSeedState(testChain(3))
	f.Add(sharded)
	twoLayer, _ := fuzzSeedState(TwoLayerChain(twolayer.DefaultConfig(), 0, 1))
	f.Add(twoLayer)
	for _, honest := range [][]byte{snap, sharded, twoLayer} {
		names, damaged := damagedPosteriors(f, honest)
		moreNames, moreDamaged := damagedGraphs(f, honest)
		names, damaged = append(names, moreNames...), append(damaged, moreDamaged...)
		for i, data := range damaged {
			if _, err := decodeSnapshot(data); !errors.Is(err, ErrCorrupt) {
				f.Fatalf("a snapshot holding %s decoded with err %v, want ErrCorrupt", names[i], err)
			}
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		re, err := encodeSnapshot(st, 0)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		st2, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-decode: %v", err)
		}
		if re2, err := encodeSnapshot(st2, 0); err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("snapshot re-encode is not a fixed point (err %v)", err)
		}
		// A graph that decodes must also fuse without panicking.
		if st.Claim != nil {
			if _, err := st.Claim.Fuse(fusion.VoteConfig()); err != nil {
				t.Fatalf("decoded graph failed to fuse: %v", err)
			}
		}
		if st.ClaimShards != nil {
			if _, err := st.ClaimShards.Fuse(fusion.VoteConfig()); err != nil {
				t.Fatalf("decoded shards failed to fuse: %v", err)
			}
		}
		if st.Ext != nil {
			cfg := twolayer.DefaultConfig()
			cfg.SiteLevel, cfg.Rounds = st.SiteLevel, 1
			if _, err := twolayer.FuseCompiled(st.Ext, cfg); err != nil {
				t.Fatalf("decoded extraction graph failed to fuse: %v", err)
			}
		}
	})
}

// FuzzJournalParse asserts parseJournal never panics and its accepted prefix
// round-trips: re-encoding the parsed records reproduces the valid bytes.
func FuzzJournalParse(f *testing.F) {
	_, journal := fuzzSeedState(testChain(1))
	f.Add(journal)
	f.Add(journal[:len(journal)-3])
	flipped := append([]byte(nil), journal...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(flipped)
	f.Add(journalHeader())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, _ := parseJournal(data)
		if validLen > len(data) {
			t.Fatalf("validLen %d exceeds input %d", validLen, len(data))
		}
		if len(recs) == 0 {
			return
		}
		re := journalHeader()
		for _, rec := range recs {
			re = append(re, encodeRecord(rec.seq, rec.batch)...)
		}
		if !bytes.Equal(re, data[:validLen]) {
			t.Fatal("journal re-encode differs from accepted prefix")
		}
	})
}
