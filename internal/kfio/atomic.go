package kfio

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"

	"kfusion/internal/faultfs"
)

// AtomicWrite writes name through fs with the one crash-safe protocol of the
// repo's durable files — genstore's snapshots and journal rewrites, and the
// feeds, gold labels and fused JSONL the CLIs write (AtomicWriteFile): stream into name+".tmp", flush, fsync, close,
// rename over name, then fsync the directory so the rename itself is durable.
// A crash at any step leaves either the old file or the new one — never a
// torn mix — and a failed write removes its temp file. Taking the write as a
// callback keeps the protocol in one place; callers only produce bytes.
func AtomicWrite(fs faultfs.FS, name string, write func(io.Writer) error) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("kfio: create %s: %w", tmp, err)
	}
	bw := bufio.NewWriter(f)
	fail := func(step string, err error) error {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("kfio: %s %s: %w", step, tmp, err)
	}
	if err := write(bw); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		return fail("flush", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("kfio: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, name); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("kfio: rename %s: %w", name, err)
	}
	if err := fs.SyncDir(); err != nil {
		return fmt.Errorf("kfio: sync dir for %s: %w", name, err)
	}
	return nil
}

// AtomicWriteFile is AtomicWrite on the real filesystem, rooted at path's
// parent directory (created if absent).
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	fs, err := faultfs.NewOS(dir)
	if err != nil {
		return err
	}
	return AtomicWrite(fs, base, write)
}
