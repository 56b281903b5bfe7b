package checkpoint_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/faultfs"
)

// write persists body as the store's next generation and waits for it.
func write(s *checkpoint.Store, body string) error {
	s.Start([]byte(body))
	_, err := s.Wait()
	return err
}

func genPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%08d.gck", gen))
}

// mustLoad asserts Load succeeds with the given body and generation.
func mustLoad(t *testing.T, s *checkpoint.Store, wantBody string, wantGen uint64) {
	t.Helper()
	got, gen, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if string(got) != wantBody || gen != wantGen {
		t.Fatalf("Load = %q gen %d, want %q gen %d", got, gen, wantBody, wantGen)
	}
}

// listDir returns the sorted names in dir (empty for a missing dir).
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestStoreWriteLoadPrune(t *testing.T) {
	dir := t.TempDir()
	s := &checkpoint.Store{Dir: dir}

	for i, b := range []string{"alpha", "beta", "gamma"} {
		if err := write(s, b); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		mustLoad(t, s, b, uint64(i+1))
	}
	// Default Keep is 2: generation 1 was pruned, 2 and 3 survive.
	want := []string{"ckpt-00000002.gck", "ckpt-00000003.gck"}
	if got := listDir(t, dir); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("dir = %v, want %v", got, want)
	}
}

func TestStoreKeep(t *testing.T) {
	dir := t.TempDir()
	s := &checkpoint.Store{Dir: dir, Keep: 3}
	for i := 0; i < 5; i++ {
		if err := write(s, fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := listDir(t, dir); len(got) != 3 {
		t.Fatalf("Keep=3 left %v", got)
	}
	mustLoad(t, s, "b4", 5)
}

func TestLoadEmpty(t *testing.T) {
	s := &checkpoint.Store{Dir: filepath.Join(t.TempDir(), "never-created")}
	if _, _, err := s.Load(); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("Load(missing dir) = %v, want ErrNoCheckpoint", err)
	}
	s = &checkpoint.Store{Dir: t.TempDir()}
	if _, _, err := s.Load(); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("Load(empty dir) = %v, want ErrNoCheckpoint", err)
	}
}

// TestStoreTornWrite fills the disk mid-body: the write must fail
// loudly, leave no temp file, and keep the previous generation as the
// newest valid one.
func TestStoreTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	s := &checkpoint.Store{Dir: dir, FS: ffs}
	if err := write(s, "good"); err != nil {
		t.Fatal(err)
	}

	ffs.Reset()
	ffs.FailWriteAfter = 10 // tears inside the body (magic is 8 bytes)
	err := write(s, strings.Repeat("x", 4096))
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrInjected", err)
	}
	ffs.FailWriteAfter = -1
	for _, name := range listDir(t, dir) {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("torn write left temp file %s", name)
		}
	}
	mustLoad(t, s, "good", 1)
}

// TestStoreWriteFaults drives each fail point that aborts before the
// rename: the previous generation must stay the newest valid one.
func TestStoreWriteFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*faultfs.FS)
	}{
		{"enospc-at-once", func(f *faultfs.FS) { f.FailWriteAfter = 0 }},
		{"fsync", func(f *faultfs.FS) { f.FailSync = true }},
		{"rename", func(f *faultfs.FS) { f.FailRename = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New()
			s := &checkpoint.Store{Dir: dir, FS: ffs}
			if err := write(s, "good"); err != nil {
				t.Fatal(err)
			}
			ffs.Reset()
			tc.arm(ffs)
			if err := write(s, "doomed"); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted write error = %v, want ErrInjected", err)
			}
			*ffs = *faultfs.New()
			mustLoad(t, s, "good", 1)
			// The store recovers on the next write; the aborted write
			// consumed no generation number.
			if err := write(s, "after"); err != nil {
				t.Fatal(err)
			}
			mustLoad(t, s, "after", 2)
		})
	}
}

// TestStoreSyncDirFault fails the directory fsync after the rename:
// the error must surface (degrade loudly — durability of the rename is
// not yet guaranteed), but the renamed file itself is complete, so a
// Load that does see it gets a verified checkpoint either way.
func TestStoreSyncDirFault(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New()
	ffs.FailSyncDir = true
	s := &checkpoint.Store{Dir: dir, FS: ffs}
	if err := write(s, "racy"); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatal("sync-dir failure did not surface")
	}
	mustLoad(t, s, "racy", 1)
}

// TestStoreCrashDuringRename simulates the crash the atomic protocol
// defends against: a stray temp file left under the final name's
// sibling. Load must ignore it and the next write must proceed past it.
func TestStoreCrashDuringRename(t *testing.T) {
	dir := t.TempDir()
	s := &checkpoint.Store{Dir: dir}
	if err := write(s, "good"); err != nil {
		t.Fatal(err)
	}
	stray := genPath(dir, 2) + ".tmp"
	if err := os.WriteFile(stray, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, s, "good", 1)
	if err := write(s, "next"); err != nil {
		t.Fatalf("write past stray temp: %v", err)
	}
	mustLoad(t, s, "next", 2)
}

// TestStoreCorruptFallback flips one byte in the newest generation:
// the checksum must catch it and Load must fall back to the previous
// generation; with every generation corrupt, Load reports corruption
// (not ErrNoCheckpoint — the caller must know data existed and died).
func TestStoreCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	s := &checkpoint.Store{Dir: dir}
	if err := write(s, "old"); err != nil {
		t.Fatal(err)
	}
	if err := write(s, "new"); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.Corrupt(genPath(dir, 2), -5); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, s, "old", 1)

	if err := faultfs.Corrupt(genPath(dir, 1), int64(len(checkpoint.Magic))); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Load()
	if err == nil || errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("Load(all corrupt) = %v, want corruption error", err)
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("Load(all corrupt) = %v, want ErrCorrupt", err)
	}
}

// TestStoreTruncatedFallback cuts bytes off the newest generation's
// tail — both a sliced checksum and a file shorter than the frame.
func TestStoreTruncatedFallback(t *testing.T) {
	for _, cut := range []int64{-3, 5} {
		t.Run(fmt.Sprintf("cut_%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s := &checkpoint.Store{Dir: dir}
			if err := write(s, "old"); err != nil {
				t.Fatal(err)
			}
			if err := write(s, "new"); err != nil {
				t.Fatal(err)
			}
			if err := faultfs.Truncate(genPath(dir, 2), cut); err != nil {
				t.Fatal(err)
			}
			mustLoad(t, s, "old", 1)
		})
	}
}

func TestVerify(t *testing.T) {
	dir := t.TempDir()
	s := &checkpoint.Store{Dir: dir}
	if err := write(s, "payload"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(genPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Verify(data)
	if err != nil || string(got) != "payload" {
		t.Fatalf("Verify = %q, %v", got, err)
	}
	if _, err := checkpoint.Verify(data[:4]); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("Verify(short) = %v", err)
	}
	bad := append([]byte("NOTMAGIC"), data[8:]...)
	if _, err := checkpoint.Verify(bad); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("Verify(bad magic) = %v", err)
	}
}

// TestStoreStartWait writes through the store's own goroutine: the
// parts land as one body, a second store over the same directory
// numbers on from what it finds there, a failed write consumes no
// generation, and pruning keeps the newest two.
func TestStoreStartWait(t *testing.T) {
	dir := t.TempDir()
	if err := write(&checkpoint.Store{Dir: dir}, "first"); err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New()
	s := &checkpoint.Store{Dir: dir, FS: ffs}
	if _, err := s.Wait(); err != nil {
		t.Fatalf("Wait with nothing in flight = %v", err)
	}
	s.Start([]byte("sec"), []byte("ond"))
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, s, "second", 2)

	ffs.FailSync = true
	s.Start([]byte("doomed"))
	if _, err := s.Wait(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("faulted write error = %v, want ErrInjected", err)
	}
	ffs.FailSync = false
	s.Start([]byte("third"))
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, s, "third", 3)
	want := []string{"ckpt-00000002.gck", "ckpt-00000003.gck"}
	if got := listDir(t, dir); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("dir = %v, want %v", got, want)
	}
}
