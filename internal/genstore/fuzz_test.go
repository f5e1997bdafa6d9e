package genstore

import (
	"bytes"
	"testing"

	"kfusion/internal/fusion"
)

// fuzzSeedState builds a small real state and returns its encoded snapshot
// and a journal with two records — the honest corpus the mutators start from.
func fuzzSeedState() (snap, journal []byte) {
	feed := testFeed(40)
	st := &State{}
	if err := testChain().Apply(st, feed[:20]); err != nil {
		panic(err)
	}
	st.Consumed, st.Batches = 20, 1
	snap = encodeSnapshot(st, 0)
	journal = journalHeader()
	journal = append(journal, encodeRecord(1, feed[20:30])...)
	journal = append(journal, encodeRecord(2, feed[30:])...)
	return snap, journal
}

// FuzzSnapshotDecode asserts decodeSnapshot never panics, and that any input
// it accepts re-encodes and decodes stably (no lossy acceptance).
func FuzzSnapshotDecode(f *testing.F) {
	snap, _ := fuzzSeedState()
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		re := encodeSnapshot(st, 0)
		st2, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-decode: %v", err)
		}
		if !bytes.Equal(re, encodeSnapshot(st2, 0)) {
			t.Fatal("snapshot re-encode is not a fixed point")
		}
		// A graph that decodes must also fuse without panicking.
		if st.Claim != nil {
			if _, err := st.Claim.Fuse(fusion.VoteConfig()); err != nil {
				t.Fatalf("decoded graph failed to fuse: %v", err)
			}
		}
	})
}

// FuzzJournalParse asserts parseJournal never panics and its accepted prefix
// round-trips: re-encoding the parsed records reproduces the valid bytes.
func FuzzJournalParse(f *testing.F) {
	_, journal := fuzzSeedState()
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
