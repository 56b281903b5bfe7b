package ring

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
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
		r.Push(append(r.Buf(), line(seq)...))
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
// wrapped, Buf hands out the evicted line's storage, so uniform lines
// are retained without allocating, and a line built in Buf never
// aliases a retained one.
func TestRingRecyclesStorage(t *testing.T) {
	var r Ring
	r.Init(8, 0)
	src := []byte(strings.Repeat("x", 100) + "\n")
	push := func() { r.Push(append(r.Buf(), src...)) }
	for i := 0; i < 16; i++ {
		push()
	}
	if n := testing.AllocsPerRun(100, push); n != 0 {
		t.Fatalf("a full ring allocates %v per push, want 0", n)
	}
	// An abandoned encode into Buf must leave every retained line intact.
	b := r.Buf()
	b = append(b, "garbage garbage garbage"...)
	_ = b
	if got, w := replay(t, &r, 0), strings.Repeat(string(src), 8); got != w {
		t.Fatal("writing into Buf without Push corrupted a retained line")
	}
	// Oversized storage is not carried forward.
	var big Ring
	big.Init(1, 0)
	big.Push(make([]byte, maxKeep+1))
	big.Push([]byte("small\n"))
	if c := cap(big.Buf()); c > maxKeep {
		t.Fatalf("recycled capacity %d exceeds maxKeep", c)
	}
}

// TestRingPushJSON pins the generic-frame path: json.Encoder's bytes,
// nothing pushed on an encoding error, and storage recycled only when
// it fits the line snugly.
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
	pad := strings.Repeat("p", 4096)
	for i := 0; i < 4; i++ { // big, small, big, small: in a window of 3 each of the last two evicts the other kind
		p := pad
		if i%2 == 1 {
			p = ""
		}
		if _, err := r.PushJSON(frame{Seq: r.Next(), Pad: p}); err != nil {
			t.Fatal(err)
		}
	}
	if got := replay(t, &r, 4); got != `{"seq":5,"v":0}`+"\n" {
		t.Fatalf("replay after 4 = %q", got)
	}
	for _, sl := range r.slots {
		if cap(sl) > 2*len(sl) {
			t.Fatalf("a %d-byte line sits in %d bytes of recycled storage", len(sl), cap(sl))
		}
	}
}

// TestRingPushCopy: a line built in the caller's own storage is
// retained as a copy (the caller may reuse its buffer at once) under
// PushJSON's storage rule — snug slots whatever the mix of sizes — and
// a recycled slot of fitting size costs no allocation.
func TestRingPushCopy(t *testing.T) {
	var r Ring
	r.Init(3, 0)
	scratch := []byte(strings.Repeat("b", 4096) + "\n")
	for i := 0; i < 4; i++ { // big, small, big, small
		line := scratch
		if i%2 == 1 {
			line = scratch[len(scratch)-8:]
		}
		got := r.PushCopy(line)
		if string(got) != string(line) || &got[0] == &line[0] {
			t.Fatalf("push %d: retained %d bytes (aliasing the caller's: %v), pushed %d", i, len(got), &got[0] == &line[0], len(line))
		}
	}
	scratch[len(scratch)-2] = 'X' // the caller reuses its buffer
	if got := replay(t, &r, 3); got != "bbbbbbb\n" {
		t.Fatalf("replay after 3 = %q", got)
	}
	for _, sl := range r.slots {
		if cap(sl) > 2*len(sl) {
			t.Fatalf("a %d-byte line sits in %d bytes of recycled storage", len(sl), cap(sl))
		}
	}
	line := scratch[:100]
	for i := 0; i < 3; i++ {
		r.PushCopy(line)
	}
	if n := testing.AllocsPerRun(100, func() { r.PushCopy(line) }); n != 0 {
		t.Fatalf("PushCopy into a recycled slot of the same size allocates %v, want 0", n)
	}
}
