// Package ring is the resend log behind every resumable wire in this
// repo: the netstream client's unacknowledged events, a server
// session's durable output lines, and a cluster link's frames. It
// retains the newest window encoded lines under contiguous sequence
// numbers; what exactly-once replay needs from it is only that every
// line after an acknowledged seq is either still retained or known to
// be gone (Covers) — never silently skipped.
//
// A push overwrites the oldest slot in O(1) and recycles its byte
// capacity into the next line, so a full ring costs no more per line
// than an empty one and allocates nothing in steady state.
package ring

import (
	"encoding/json"
	"io"
)

// maxKeep bounds the capacity a recycled slot may carry into the next
// line: one oversized frame (a cluster adopt blob runs to megabytes)
// must not pin its allocation in the ring forever.
const maxKeep = 64 << 10

// Ring is a circular log of encoded lines. The zero value retains
// nothing until Init; it is not safe for concurrent use.
type Ring struct {
	window int
	slots  [][]byte // grows lazily to window, then wraps
	head   int      // index of the oldest retained line
	n      int      // retained lines
	last   uint64   // seq of the newest line pushed (the floor while empty)
	spare  []byte   // recycled storage the next line is built in
	enc    *json.Encoder
}

// Init empties the ring, sets how many lines it retains, and positions
// it after floor: the next line pushed is seq floor+1.
func (r *Ring) Init(window int, floor uint64) {
	*r = Ring{window: max(window, 1), last: floor}
}

// Clear forgets every retained line (their storage is kept for reuse);
// sequence numbering continues after Last.
func (r *Ring) Clear() { r.head, r.n = 0, 0 }

// Last returns the seq of the newest line pushed.
func (r *Ring) Last() uint64 { return r.last }

// Next returns the seq the next Push assigns.
func (r *Ring) Next() uint64 { return r.last + 1 }

// Window returns how many lines the ring retains.
func (r *Ring) Window() int { return r.window }

// Len returns the number of retained lines.
func (r *Ring) Len() int { return r.n }

// Oldest returns the seq of the oldest retained line, 0 when empty.
func (r *Ring) Oldest() uint64 {
	if r.n == 0 {
		return 0
	}
	return r.last - uint64(r.n) + 1
}

// Covers reports whether every line with a seq greater than after is
// still retained, i.e. whether a peer that consumed through after can
// be caught up by WriteAfter. False means the window was exceeded.
func (r *Ring) Covers(after uint64) bool { return after >= r.last-uint64(r.n) }

// Buf returns an empty slice over recycled storage to append the next
// line into. It never aliases a retained line, so an encoder that gives
// up halfway leaves the ring intact.
func (r *Ring) Buf() []byte { return r.spare[:0] }

// Push retains line (newline included) as seq Next, evicting the oldest
// line once the window is full. The ring owns line from here on.
func (r *Ring) Push(line []byte) {
	i := r.head // full: overwrite the oldest
	if r.n < r.window {
		// Still filling, so never wrapped since Init or Clear: head is 0.
		if i = r.n; i == len(r.slots) {
			r.slots = append(r.slots, nil)
		}
		r.n++
	} else if r.head++; r.head == r.window {
		r.head = 0
	}
	r.spare = r.slots[i]
	if cap(r.spare) > maxKeep {
		r.spare = nil
	}
	r.slots[i] = line
	r.last++
}

// PushJSON encodes v as one JSON line (as json.Encoder does, newline
// included) into recycled storage and pushes it. The caller stamps
// Next into v first. On an encoding error nothing is pushed.
func (r *Ring) PushJSON(v any) ([]byte, error) {
	if r.enc == nil {
		r.enc = json.NewEncoder((*stage)(r))
	}
	r.spare = r.spare[:0]
	if err := r.enc.Encode(v); err != nil {
		return nil, err
	}
	line := r.spare
	r.Push(line)
	return line, nil
}

// PushCopy pushes a copy of line (newline included), which the caller
// built in storage of its own because its size is not known until it
// is encoded: the copy gets PushJSON's storage rule, so a link whose
// frames differ in size by orders of magnitude keeps snug slots. It
// returns the retained copy.
func (r *Ring) PushCopy(line []byte) []byte {
	r.spare = r.spare[:0]
	_, _ = (*stage)(r).Write(line) // cannot fail
	line = r.spare
	r.Push(line)
	return line
}

// stage is the io.Writer PushJSON's encoder hands the finished line
// to, in one Write. Frames of one ring differ in size by orders of
// magnitude (a cluster link carries 512-row batches and 40-byte
// barriers), so recycled storage is used only when it fits the line
// snugly; otherwise every slot would grow to the largest frame.
type stage Ring

func (s *stage) Write(p []byte) (int, error) {
	if c := cap(s.spare); c < len(p) || c > 2*len(p) {
		s.spare = make([]byte, 0, len(p))
	}
	s.spare = append(s.spare, p...)
	return len(p), nil
}

// WriteAfter writes every retained line with a seq greater than after
// to w, oldest first, as the bytes that were pushed. The caller checks
// Covers first; lines already evicted are simply not written.
func (r *Ring) WriteAfter(w io.Writer, after uint64) error {
	skip := 0
	if old := r.Oldest(); after >= old {
		skip = int(min(after-old+1, uint64(r.n)))
	}
	for k := skip; k < r.n; k++ {
		i := r.head + k
		if i >= r.window {
			i -= r.window
		}
		if _, err := w.Write(r.slots[i]); err != nil {
			return err
		}
	}
	return nil
}
