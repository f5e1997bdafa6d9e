package genstore

import (
	"bytes"
	"errors"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
)

var errFlaky = errors.New("flaky: injected I/O failure")

// flakyFS fails single operations on demand and then works again, the way a
// full disk that is cleaned up or a transient EIO behaves: halfWrite makes the
// next Write put down the first half of its bytes and fail, failSync fails
// the next Sync, failCreate fails the next Create.
type flakyFS struct {
	faultfs.FS
	halfWrite, failSync, failCreate bool
}

func (f *flakyFS) Create(name string) (faultfs.File, error) {
	if f.failCreate {
		f.failCreate = false
		return nil, errFlaky
	}
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

func (f *flakyFS) OpenAppend(name string) (faultfs.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

type flakyFile struct {
	faultfs.File
	fs *flakyFS
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.fs.halfWrite {
		f.fs.halfWrite = false
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errFlaky
	}
	return f.File.Write(p)
}

func (f *flakyFile) Sync() error {
	if f.fs.failSync {
		f.fs.failSync = false
		return errFlaky
	}
	return f.File.Sync()
}

// TestFailedJournalWriteIsTakenBack: three 100-record appends where only the
// second one's journal write (torn halfway) or fsync fails, once. The store
// acknowledges batches one and three, and a reopen must recover exactly those
// — not stop at the torn record, and not replay the refused batch in the
// acknowledged one's place — and a further append must continue the
// sequence. When taking the record back fails too, the store refuses every
// later Append and Snapshot, and a reopen recovers batch one only.
func TestFailedJournalWriteIsTakenBack(t *testing.T) {
	feed := testFeed(400)
	batch := func(i int) []extract.Extraction { return feed[i*100 : (i+1)*100] }
	reopen := func(t *testing.T, fsys faultfs.FS) (*Store, *State) {
		t.Helper()
		store, st, err := OpenFS(fsys, testChain(1).Apply)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		return store, st
	}
	appendOK := func(t *testing.T, store *Store, st *State, i int) {
		t.Helper()
		if err := store.Append(st, batch(i)); err != nil {
			t.Fatalf("append batch %d: %v", i, err)
		}
	}

	for _, mode := range []string{"torn write", "failed sync", "restore fails"} {
		t.Run(mode, func(t *testing.T) {
			mem := faultfs.NewMem()
			fsys := &flakyFS{FS: mem}
			store, st := reopen(t, fsys)
			appendOK(t, store, st, 0)
			switch mode {
			case "torn write":
				fsys.halfWrite = true
			case "failed sync":
				fsys.failSync = true
			case "restore fails":
				fsys.halfWrite, fsys.failCreate = true, true
			}
			if err := store.Append(st, batch(1)); !errors.Is(err, errFlaky) {
				t.Fatalf("append batch 1: got %v, want the injected failure", err)
			}
			if st.Batches != 1 {
				t.Fatalf("a refused batch moved Batches to %d", st.Batches)
			}

			if mode == "restore fails" {
				if err := store.Append(st, batch(2)); !errors.Is(err, errFlaky) {
					t.Fatalf("append after a failed restore: got %v, want the stored failure", err)
				}
				if err := store.Snapshot(st); !errors.Is(err, errFlaky) {
					t.Fatalf("snapshot after a failed restore: got %v, want the stored failure", err)
				}
				store.Close()
				want := faultfs.NewMem()
				wstore, wst := reopen(t, want)
				appendOK(t, wstore, wst, 0)
				wstore.Close()
				rstore, got := reopen(t, mem)
				defer rstore.Close()
				if !bytes.Equal(stateFingerprint(t, got), stateFingerprint(t, wst)) {
					t.Fatalf("reopen recovered %d batches, not batch 1 alone", got.Batches)
				}
				return
			}

			appendOK(t, store, st, 2)
			store.Close()
			rstore, got := reopen(t, mem)
			if got.Batches != 2 || !bytes.Equal(stateFingerprint(t, got), stateFingerprint(t, st)) {
				t.Fatalf("reopen recovered %d batches that differ from the acknowledged ones (1 and 3)", got.Batches)
			}
			appendOK(t, rstore, got, 3)
			rstore.Close()
			rstore, again := reopen(t, mem)
			defer rstore.Close()
			if again.Batches != 3 || !bytes.Equal(stateFingerprint(t, again), stateFingerprint(t, got)) {
				t.Fatalf("after a further append, reopen recovered %d batches, want the live 3", again.Batches)
			}
		})
	}
}
