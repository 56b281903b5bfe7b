package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Magic opens every checkpoint file: "GRETACK" plus the format
// generation digit.
const Magic = "GRETACK1"

// crcTable is CRC32-Castagnoli, hardware-accelerated on most targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoCheckpoint reports a Load against a directory holding no
// checkpoint files at all (as opposed to only corrupt ones).
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// Store manages a directory of generational checkpoint files named
// ckpt-%08d.gck. Writes are atomic — temp file, fsync, rename, fsync
// of the directory — so a crash at any point leaves either the
// previous generation or the new one fully intact, never a torn file
// under the final name. Load picks the newest generation whose
// checksum verifies, falling back to earlier generations so a corrupt
// or truncated newest file degrades to the previous checkpoint rather
// than to nothing.
//
// Start hands a write to a goroutine of the store's own and Wait
// collects its outcome. A store runs one write at a time: call Wait
// before the next Start. The first write reads the directory; later
// ones number and prune generations from memory, so the directory
// belongs to the store while it writes.
type Store struct {
	// Dir is the checkpoint directory (created by the first write).
	Dir string
	// FS is the filesystem; nil means the real one.
	FS FS
	// Keep bounds how many generations survive a write's pruning;
	// values < 1 mean the default of 2 (current + one fallback).
	Keep int

	// gens lists the generations on disk, ascending, once scanned is
	// set by the first write that created the directory and read it.
	gens    []uint64
	scanned bool
	// done receives the outcome of the write Start began; busy is set
	// from Start until Wait.
	done chan flight
	busy bool
}

// flight is the outcome of one write on the store's goroutine.
type flight struct {
	dur time.Duration
	err error
}

func (s *Store) fs() FS {
	if s.FS == nil {
		return OSFS{}
	}
	return s.FS
}

func (s *Store) keep() int {
	if s.Keep < 1 {
		return 2
	}
	return s.Keep
}

func genName(gen uint64) string { return fmt.Sprintf("ckpt-%08d.gck", gen) }

// parseGen extracts the generation from a checkpoint file name,
// reporting ok == false for anything that is not a final checkpoint
// file (temp files, strangers).
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".gck") {
		return 0, false
	}
	mid := name[len("ckpt-") : len(name)-len(".gck")]
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// generations lists the existing checkpoint generations in ascending
// order. A missing directory is an empty store.
func (s *Store) generations() []uint64 {
	names, err := s.fs().ReadDir(s.Dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, name := range names {
		if gen, ok := parseGen(name); ok {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	return gens
}

// Start begins writing the concatenation of parts as the next
// generation on a goroutine of the store's own and returns at once.
// The parts are the store's until Wait returns, and it keeps no
// reference to them after the write: the caller may reuse their storage
// once Wait has returned. A write a process
// abandons in flight leaves the previous generation or the new one,
// never a torn one. On any failure the temp file is removed and the
// previous generation remains the newest valid one.
func (s *Store) Start(parts ...[]byte) {
	if s.busy {
		panic("checkpoint: Start with a write in flight")
	}
	if s.done == nil {
		s.done = make(chan flight, 1)
	}
	s.busy = true
	go func() {
		start := time.Now()
		err := s.write(parts)
		s.done <- flight{dur: time.Since(start), err: err}
	}()
}

// Wait blocks until the write Start began is durable or has failed and
// returns how long it took and its error; with no write in flight it
// returns at once.
func (s *Store) Wait() (time.Duration, error) {
	if !s.busy {
		return 0, nil
	}
	s.busy = false
	f := <-s.done
	return f.dur, f.err
}

// write frames the concatenation of parts with magic and checksum and
// makes it the next generation.
func (s *Store) write(parts [][]byte) error {
	fsys := s.fs()
	if !s.scanned {
		if err := fsys.MkdirAll(s.Dir); err != nil {
			return fmt.Errorf("checkpoint: mkdir: %w", err)
		}
		s.gens, s.scanned = s.generations(), true
	}
	gen := uint64(1)
	if len(s.gens) > 0 {
		gen = s.gens[len(s.gens)-1] + 1
	}
	final := filepath.Join(s.Dir, genName(gen))
	tmp := final + ".tmp"

	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if _, err := io.WriteString(f, Magic); err != nil {
		return cleanup(fmt.Errorf("checkpoint: write header: %w", err))
	}
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			return cleanup(fmt.Errorf("checkpoint: write body: %w", err))
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], Sum(parts...))
	if _, err := f.Write(trailer[:]); err != nil {
		return cleanup(fmt.Errorf("checkpoint: write checksum: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("checkpoint: fsync: %w", err))
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	// The file is in place under its final name: it holds its generation
	// whether or not the directory sync below succeeds.
	s.gens = append(s.gens, gen)
	if err := fsys.SyncDir(s.Dir); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	s.prune()
	return nil
}

// prune removes the oldest generations beyond Keep. A removal that
// fails keeps its generation listed, to be retried by the next write:
// stale files only cost disk.
func (s *Store) prune() {
	excess := len(s.gens) - s.keep()
	kept := s.gens[:0]
	for i, gen := range s.gens {
		if i < excess {
			err := s.fs().Remove(filepath.Join(s.Dir, genName(gen)))
			if err == nil || errors.Is(err, fs.ErrNotExist) {
				continue
			}
		}
		kept = append(kept, gen)
	}
	s.gens = kept
}

// Sum is the checksum a checkpoint frame ends with: CRC32-C over Magic
// and the concatenation of parts, the body.
func Sum(parts ...[]byte) uint32 {
	sum := crc32.Checksum([]byte(Magic), crcTable)
	for _, p := range parts {
		sum = crc32.Update(sum, crcTable, p)
	}
	return sum
}

// Frame returns the concatenation of parts framed as a checkpoint file
// is — Magic, the body, its Sum — for a snapshot that travels in memory
// rather than through a Store; Verify checks it.
func Frame(parts ...[]byte) []byte {
	n := len(Magic) + 4
	for _, p := range parts {
		n += len(p)
	}
	b := append(make([]byte, 0, n), Magic...)
	for _, p := range parts {
		b = append(b, p...)
	}
	return binary.LittleEndian.AppendUint32(b, Sum(parts...))
}

// Verify frame-checks one checkpoint file's bytes and returns the body
// on success.
func Verify(data []byte) ([]byte, error) {
	if len(data) < len(Magic)+4 {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, trailer := data[len(Magic):len(data)-4], data[len(data)-4:]
	if got, want := Sum(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return body, nil
}

// Load returns the body of the newest checkpoint generation whose
// checksum verifies, along with its generation number. Corrupt or
// truncated generations are skipped (newest first), so a crash that
// damaged the latest file falls back to the previous one. Returns
// ErrNoCheckpoint when no checkpoint files exist at all; if files
// exist but none verifies, the last corruption error is returned.
func (s *Store) Load() ([]byte, uint64, error) {
	gens := s.generations()
	if len(gens) == 0 {
		return nil, 0, ErrNoCheckpoint
	}
	var lastErr error
	for i := len(gens) - 1; i >= 0; i-- {
		name := filepath.Join(s.Dir, genName(gens[i]))
		data, err := s.fs().ReadFile(name)
		if err != nil {
			lastErr = fmt.Errorf("checkpoint: read %s: %w", name, err)
			continue
		}
		body, err := Verify(data)
		if err != nil {
			lastErr = fmt.Errorf("checkpoint: %s: %w", name, err)
			continue
		}
		return body, gens[i], nil
	}
	return nil, 0, lastErr
}
