// Package faultfs is a fault-injection harness for the checkpoint
// store: a checkpoint.FS decorator that can tear writes after a byte
// budget, fail with ENOSPC, fail fsync, and crash during rename
// (leaving the temp file behind, as a real crash between rename
// scheduling and durability would). It drives the recovery tests —
// torn writes, full disks, corrupt files, and interrupted renames must
// all degrade to the previous checkpoint generation, loudly, never to
// silent data loss.
package faultfs

import (
	"errors"
	"os"
	"syscall"

	"github.com/greta-cep/greta/internal/checkpoint"
)

// ErrInjected marks failures produced by the harness (wrapped around
// the specific errno where one applies).
var ErrInjected = errors.New("faultfs: injected fault")

// FS wraps an inner checkpoint.FS with programmable faults. The zero
// fault configuration passes everything through. Not safe for
// concurrent mutation of the fault fields while a Store call runs —
// including a write Store.Start left in flight: a test that times a
// fault against such a write does it in SyncHook.
type FS struct {
	Inner checkpoint.FS

	// FailWriteAfter tears writes: after this many bytes have been
	// written (across all files since the last reset), every Write
	// returns an injected ENOSPC. < 0 disables.
	FailWriteAfter int64
	// FailSync makes File.Sync fail.
	FailSync bool
	// FailRename makes Rename fail, leaving the temp file behind —
	// the on-disk state of a crash during rename.
	FailRename bool
	// FailSyncDir makes SyncDir fail.
	FailSyncDir bool
	// SyncHook, when set, runs at the start of every File.Sync, on the
	// goroutine writing the file; an error it returns fails the sync. It
	// holds a write in flight (block until released) or fails a chosen
	// one. Set it before the store is used.
	SyncHook func() error

	written int64
	// Writes counts File.Write calls (diagnostics).
	Writes int
}

// New returns a pass-through FS over the real filesystem.
func New() *FS { return &FS{Inner: checkpoint.OSFS{}, FailWriteAfter: -1} }

// Reset clears the written-byte budget counter.
func (f *FS) Reset() { f.written = 0 }

func (f *FS) MkdirAll(dir string) error { return f.Inner.MkdirAll(dir) }

func (f *FS) Create(name string) (checkpoint.File, error) {
	inner, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if f.FailRename {
		return errors.Join(ErrInjected, syscall.EIO)
	}
	return f.Inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error { return f.Inner.Remove(name) }

func (f *FS) ReadDir(dir string) ([]string, error) { return f.Inner.ReadDir(dir) }

func (f *FS) ReadFile(name string) ([]byte, error) { return f.Inner.ReadFile(name) }

func (f *FS) SyncDir(dir string) error {
	if f.FailSyncDir {
		return errors.Join(ErrInjected, syscall.EIO)
	}
	return f.Inner.SyncDir(dir)
}

type file struct {
	fs    *FS
	inner checkpoint.File
}

func (w *file) Write(p []byte) (int, error) {
	w.fs.Writes++
	if lim := w.fs.FailWriteAfter; lim >= 0 {
		room := lim - w.fs.written
		if room <= 0 {
			return 0, errors.Join(ErrInjected, syscall.ENOSPC)
		}
		if int64(len(p)) > room {
			// Torn write: part of the payload lands, then the disk is full.
			n, err := w.inner.Write(p[:room])
			w.fs.written += int64(n)
			if err != nil {
				return n, err
			}
			return n, errors.Join(ErrInjected, syscall.ENOSPC)
		}
	}
	n, err := w.inner.Write(p)
	w.fs.written += int64(n)
	return n, err
}

func (w *file) Sync() error {
	if hook := w.fs.SyncHook; hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	if w.fs.FailSync {
		return errors.Join(ErrInjected, syscall.EIO)
	}
	return w.inner.Sync()
}

func (w *file) Close() error { return w.inner.Close() }

// Corrupt flips one byte in the named file at the given offset
// (negative offsets count from the end), simulating bit rot that the
// checkpoint checksum must catch.
func Corrupt(name string, offset int64) error {
	data, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	if offset < 0 {
		offset += int64(len(data))
	}
	if offset < 0 || offset >= int64(len(data)) {
		return errors.New("faultfs: corrupt offset out of range")
	}
	data[offset] ^= 0xff
	return os.WriteFile(name, data, 0o644)
}

// Truncate cuts the named file to n bytes (negative n removes -n bytes
// from the end), simulating a torn tail.
func Truncate(name string, n int64) error {
	info, err := os.Stat(name)
	if err != nil {
		return err
	}
	if n < 0 {
		n += info.Size()
	}
	if n < 0 {
		n = 0
	}
	return os.Truncate(name, n)
}
