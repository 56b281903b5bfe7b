package ring

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func line(seq uint64) []byte { return []byte(fmt.Sprintf("line-%d\n", seq)) }

// replay returns what WriteAfter(after) writes.
func replay(t *testing.T, r *Ring, after uint64) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteAfter(&b, after); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// want is the concatenation of lines lo..hi inclusive.
func want(lo, hi uint64) string {
	var b strings.Builder
	for s := lo; s <= hi; s++ {
		b.Write(line(s))
	}
	return b.String()
}

// TestRingReplayEveryOffset pushes through several wrap-arounds and, at
// every fill level, replays from every possible acknowledged seq: the
// ring must hand back exactly the retained tail after it, and Covers
// must be false exactly for the seqs whose successor was evicted.
func TestRingReplayEveryOffset(t *testing.T) {
	const window, floor = 5, 100
	var r Ring
	r.Init(window, floor)
	if r.Last() != floor || r.Next() != floor+1 || r.Len() != 0 || r.Oldest() != 0 {
		t.Fatalf("fresh ring: last=%d next=%d len=%d oldest=%d", r.Last(), r.Next(), r.Len(), r.Oldest())
	}
	if !r.Covers(floor) || r.Covers(floor-1) {
		t.Fatal("an empty ring covers exactly its floor")
	}
	for seq := uint64(floor + 1); seq <= floor+3*window+2; seq++ {
		if r.Next() != seq {
			t.Fatalf("Next = %d, want %d", r.Next(), seq)
		}
		r.Push(line(seq))
		n := min(seq-floor, window)
		oldest := seq - n + 1
		if r.Last() != seq || uint64(r.Len()) != n || r.Oldest() != oldest {
			t.Fatalf("after seq %d: last=%d len=%d oldest=%d, want len %d oldest %d", seq, r.Last(), r.Len(), r.Oldest(), n, oldest)
		}
		for after := uint64(floor - 1); after <= seq+1; after++ {
			if got, covered := r.Covers(after), after+1 >= oldest; got != covered {
				t.Fatalf("after seq %d: Covers(%d) = %v, want %v", seq, after, got, covered)
			}
			lo := max(after+1, oldest)
			if got := replay(t, &r, after); got != want(lo, seq) {
				t.Fatalf("after seq %d: WriteAfter(%d) = %q, want lines %d..%d", seq, after, got, lo, seq)
			}
		}
	}
}

// TestRingClear pins the rebase reset: the retained lines go, the seq
// cursor stays, the cleared range is no longer covered, and pushes
// resume into the recycled slots.
func TestRingClear(t *testing.T) {
	var r Ring
	r.Init(4, 0)
	for seq := uint64(1); seq <= 6; seq++ {
		r.Push(line(seq))
	}
	r.Clear()
	if r.Len() != 0 || r.Last() != 6 || r.Oldest() != 0 || r.Covers(5) || !r.Covers(6) {
		t.Fatalf("cleared ring: len=%d last=%d oldest=%d covers(5)=%v covers(6)=%v", r.Len(), r.Last(), r.Oldest(), r.Covers(5), r.Covers(6))
	}
	if got := replay(t, &r, 0); got != "" {
		t.Fatalf("cleared ring replays %q", got)
	}
	for seq := uint64(7); seq <= 12; seq++ {
		r.Push(line(seq))
	}
	if got := replay(t, &r, 0); got != want(9, 12) {
		t.Fatalf("after clear + 6 pushes: %q, want lines 9..12", got)
	}
}

// TestRingRecyclesStorage pins the steady state: once the ring has
// wrapped, its segments are recycled, so a push allocates nothing —
// for uniform lines and for lines that cycle through 40 B to 4 KiB, the
// mix a cluster link's frames make — and the retained line is a copy
// that the caller's buffer does not reach and that reaches no
// neighbour. A line longer than ownMin gets storage of its own, which
// its eviction leaves to the next long line that fits: frames of tens
// of KiB (a cluster link's at the row cap) allocate nothing either.
func TestRingRecyclesStorage(t *testing.T) {
	if n := unsafe.Sizeof(segment{}); n != segSize {
		t.Fatalf("a segment is %d bytes, want segSize (%d): a segment size class of its own", n, segSize)
	}
	for _, tc := range []struct {
		name  string
		sizes []int
	}{
		{"uniform", []int{101}},
		{"40B-4KiB", []int{40, 4096, 100, 1500, 40, 4000, 700, 2600, 256}},
		{"cap-frames", []int{20000, 40, 44000, 40, 21000, 3000}},
	} {
		var r Ring
		r.Init(13, 0) // a prime window: laps of sizes and of the ring do not line up
		scratch := bytes.Repeat([]byte("x"), slices.Max(tc.sizes))
		k := 0
		push := func() {
			n := tc.sizes[k%len(tc.sizes)]
			k++
			r.Push(scratch[:n])
		}
		for i := 0; i < 100; i++ {
			push()
		}
		if n := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1000; i++ {
				push()
			}
		}); n != 0 {
			t.Errorf("%s: 1000 pushes into a full ring allocate %v, want 0", tc.name, n)
		}
	}

	var r Ring
	r.Init(2, 0)
	scratch := []byte("first line\n")
	got := r.Push(scratch)
	next := r.Push([]byte("second line\n"))
	scratch[0] = 'X' // the caller reuses its buffer
	if string(got) != "first line\n" || cap(got) != len(got) {
		t.Fatalf("retained %q (cap %d): not a copy cut to its length", got, cap(got))
	}
	_ = append(got, "garbage"...) // reaches no neighbour
	if string(next) != "second line\n" || replay(t, &r, 0) != "first line\nsecond line\n" {
		t.Fatal("appending to a retained line changed its neighbour")
	}

	big := make([]byte, ownMin+1)
	r.Push(big)
	if s := r.slots[r.index(1)]; s.seg != nil || len(s.line) != len(big) {
		t.Fatalf("a %d-byte line sits in a segment", len(big))
	}
	seg := r.cur
	r.Push(big)
	r.Push([]byte("small\n"))
	if r.slots[r.index(0)].seg != nil || r.slots[r.index(1)].seg != seg {
		t.Fatal("a small line after two own-storage lines is not back in the current segment")
	}
}

// TestRingPushJSON pins the generic-frame path: json.Encoder's bytes,
// the retained copy returned, and nothing pushed on an encoding error.
func TestRingPushJSON(t *testing.T) {
	type frame struct {
		Seq uint64  `json:"seq"`
		V   float64 `json:"v"`
		Pad string  `json:"pad,omitempty"`
	}
	var r Ring
	r.Init(3, 0)
	got, err := r.PushJSON(frame{Seq: r.Next(), V: 1.5})
	if err != nil || string(got) != `{"seq":1,"v":1.5}`+"\n" {
		t.Fatalf("PushJSON = %q, %v", got, err)
	}
	if _, err := r.PushJSON(frame{Seq: r.Next(), V: math.NaN()}); err == nil {
		t.Fatal("NaN encoded")
	}
	if r.Last() != 1 || r.Len() != 1 {
		t.Fatalf("a failed encode moved the ring: last=%d len=%d", r.Last(), r.Len())
	}
	pad := strings.Repeat("p", 2*ownMin)
	var lines []string
	for i := 0; i < 4; i++ { // big, small, big, small: own storage and segment in turn
		p := pad
		if i%2 == 1 {
			p = ""
		}
		line, err := r.PushJSON(frame{Seq: r.Next(), Pad: p})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	if got, w := replay(t, &r, 2), strings.Join(lines[1:], ""); got != w {
		t.Fatalf("replay after 2 = %d bytes, want the %d of the last three lines", len(got), len(w))
	}
}

// countWriter counts the writes it receives and keeps their bytes.
type countWriter struct {
	bytes.Buffer
	writes int
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestRingWriteAfterRuns: lines that sit next to each other in one
// segment are replayed in one write, so a replay costs a write per
// segment, not per line; a line with storage of its own is a write of
// its own between the runs around it.
func TestRingWriteAfterRuns(t *testing.T) {
	const n, size = 1000, 64
	var r Ring
	r.Init(n, 0)
	var all bytes.Buffer
	for i := 0; i < 2*n; i++ {
		l := fmt.Appendf(nil, "%0*d\n", size-1, i)
		r.Push(l)
		if i >= n {
			all.Write(l)
		}
	}
	var w countWriter
	if err := r.WriteAfter(&w, 0); err != nil {
		t.Fatal(err)
	}
	if most := (n*size+segSize-1)/segSize + 1; w.writes > most || !bytes.Equal(w.Bytes(), all.Bytes()) {
		t.Fatalf("replaying %d %d-byte lines took %d writes (want <= %d), bytes equal: %v", n, size, w.writes, most, bytes.Equal(w.Bytes(), all.Bytes()))
	}

	r.Init(8, 0)
	big := bytes.Repeat([]byte("b"), ownMin+1)
	for _, l := range [][]byte{[]byte("a\n"), []byte("b\n"), big, []byte("c\n"), []byte("d\n")} {
		r.Push(l)
	}
	w = countWriter{}
	if err := r.WriteAfter(&w, 0); err != nil {
		t.Fatal(err)
	}
	if want := "a\nb\n" + string(big) + "c\nd\n"; w.writes != 3 || w.String() != want {
		t.Fatalf("a, b, own-storage line, c, d: %d writes, want 3", w.writes)
	}
}

// FuzzRing drives a ring with pushes of every size class, clears and
// replays, against a plain model: the retained lines as slices of their
// own. After every operation each line the ring returned that is still
// retained must read as pushed, Covers must be true exactly from the
// oldest retained seq's predecessor on, and WriteAfter from every
// acknowledged seq must replay the model's tail.
func FuzzRing(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(7), uint16(3), []byte("\x10\x50\x90\xd0\x11\x51\x91\xd1\x05\x45\x85\xc5\x06\x46\x86\xc6"))
	f.Add(uint8(63), uint16(9), bytes.Repeat([]byte{0x3f, 0x7f, 0x40, 0x80, 0xbf, 0x07}, 20))
	f.Add(uint8(12), uint16(0), bytes.Repeat([]byte{0x48, 0x88, 0x0e, 0xc8, 0x30, 0x70}, 16))
	f.Add(uint8(2), uint16(1), []byte{0xf9, 0xf8, 0xff, 0xfd, 0xfc, 0x01, 0xc9, 0xfe, 0xff, 0xfd, 0x7a})
	// 3.5 KiB, 1.5 KiB, 49 B and ~4 KiB lines in a window of 6: segments
	// turn over every few pushes (found rewinding a segment early).
	f.Add(uint8(5), uint16(4), []byte("x0000000X00Xx00X\x850\x96\x96\x960"))
	// 3.5 KiB lines in a window of 4, cleared, then enough to fill the
	// segment the clear emptied and the next.
	f.Add(uint8(3), uint16(0), []byte("xxx\xfexxxxxxxxxxxx\xff"))
	f.Fuzz(func(t *testing.T, win uint8, floor uint16, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		window := 1 + int(win)%64
		var r Ring
		r.Init(window, uint64(floor))
		last := uint64(floor)
		var model, held [][]byte // retained lines oldest first: as pushed, and as Push returned them
		var scratch []byte
		check := func(op int) {
			t.Helper()
			if r.Last() != last || r.Len() != len(model) {
				t.Fatalf("op %d: last=%d len=%d, model %d and %d", op, r.Last(), r.Len(), last, len(model))
			}
			for k := range model {
				if !bytes.Equal(held[k], model[k]) {
					t.Fatalf("op %d: retained seq %d changed under a later push", op, last-uint64(len(model)-k)+1)
				}
			}
		}
		replayAll := func(op int) {
			t.Helper()
			oldest := last - uint64(len(model)) + 1
			for after := uint64(max(int(floor)-1, 0)); after <= last+1; after++ {
				if got, want := r.Covers(after), after+1 >= oldest; got != want {
					t.Fatalf("op %d: Covers(%d) = %v, want %v", op, after, got, want)
				}
				var w countWriter
				if err := r.WriteAfter(&w, after); err != nil {
					t.Fatal(err)
				}
				var tail [][]byte
				if after+1 >= oldest {
					tail = model[min(after+1-oldest, uint64(len(model))):]
				} else {
					tail = model
				}
				if want := bytes.Join(tail, nil); !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("op %d: WriteAfter(%d) wrote %d bytes, want the %d of %d lines", op, after, w.Len(), len(want), len(tail))
				}
				if w.writes > len(tail) {
					t.Fatalf("op %d: WriteAfter(%d) took %d writes for %d lines", op, after, w.writes, len(tail))
				}
			}
		}
		for op, b := range ops {
			switch {
			case b == 0xfe:
				r.Clear()
				model, held = model[:0], held[:0]
			case b == 0xff:
				replayAll(op)
			default:
				// Every line is built in the same scratch, which the next
				// push overwrites: the ring must have kept a copy.
				scratch = scratch[:0]
				for i := range lineSize(b) {
					scratch = append(scratch, byte(int(last)*31+i))
				}
				got := r.Push(scratch)
				last++
				if !bytes.Equal(got, scratch) || cap(got) != len(got) {
					t.Fatalf("op %d: Push of %d bytes returned %d (cap %d)", op, len(scratch), len(got), cap(got))
				}
				if len(model) == window {
					model, held = model[1:], held[1:]
				}
				model, held = append(model, bytes.Clone(scratch)), append(held, got)
			}
			check(op)
		}
		replayAll(len(ops))
	})
}

// lineSize maps a fuzz byte to a line size: short lines, lines of up to
// a few KiB, lines around ownMin, and lines past the 64 KiB that one
// large frame runs to.
func lineSize(b byte) int {
	v := int(b & 0x3f)
	switch b >> 6 {
	case 0:
		return 1 + v
	case 1:
		return 1 + v*64
	case 2:
		return ownMin - 31 + v
	}
	if b == 0xfd { // 0xfe and 0xff are Clear and replay
		return 64<<10 + 1
	}
	return ownMin + 1 + v*v
}
