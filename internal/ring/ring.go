// Package ring is the resend log behind every resumable wire in this
// repo: the netstream client's unacknowledged events, a server
// session's durable output lines, and a cluster link's frames. It
// retains the newest window encoded lines under contiguous sequence
// numbers; what exactly-once replay needs from it is only that every
// line after an acknowledged seq is either still retained or known to
// be gone (Covers) — never silently skipped.
//
// Storage is one byte log. Push copies a line onto the end of the
// current segment (segSize bytes), back to back with the lines pushed
// before it, whatever their sizes; a segment counts its retained lines
// and, when the last of them is evicted, goes to a free list of at
// most two segments that the next segment is taken from. A full ring
// therefore costs no more per line than an empty one and allocates
// nothing in steady state, however much consecutive lines differ in
// size (a cluster link alternates 40-byte barriers and 512-row batch
// frames). A line longer than ownMin — a quarter of a segment — gets
// storage of its own instead, so a large frame neither wastes a
// segment's tail nor pins its size in the ring. An evicted long line's
// storage is kept as the spare the next long line that fits is copied
// into — one at a time, the largest up to KeepMax — so a link that
// sends frames of tens of KiB at the row cap allocates none in steady
// state, while a rare huge one (a cluster adopt blob runs to megabytes)
// is dropped with its eviction. Lines that sit next to each other in
// one segment go to WriteAfter's writer in one Write.
//
// A line Push or PushJSON returns is the retained copy: it stays valid,
// and unchanged, until the line is evicted — window pushes later — or
// the ring is cleared or re-initialised.
package ring

import (
	"encoding/json"
	"io"
)

// segSize is the byte size of a segment, header included, and ownMin
// the longest line a segment takes. Measured on cluster_2shard and
// net_durable (see CHANGES.md): a smaller segment moves more lines to
// own storage, a larger one adds live heap to every ring, the nearly
// empty ones of short sessions included.
const (
	segSize = 16 << 10
	ownMin  = segSize / 4
)

// KeepMax is the most storage a wire keeps for reuse once a long line
// is gone: the ring's spare, and the netstream client's pending buffer
// that carried the line to the connection. A coordinator frame at the
// 512-row cap measured up to 37 KiB on the cluster stream, and the
// pending buffer carrying it behind a chunk of lines 56 KiB; on
// cluster_2shard 2.4 % of the frames are longer than ownMin, 19 % of the
// frame bytes, and none longer than 16 KiB (see CHANGES.md).
const KeepMax = 64 << 10

// segment holds lines back to back in b[:n]; live counts the retained
// ones. It is exactly segSize bytes, an allocation size class of its
// own: a header on top of segSize bytes of lines would round up to the
// next class and waste an eighth of every segment.
type segment struct {
	n, live int32
	b       [segSize - 8]byte
}

// slot is one retained line. A line in a segment is cut from seg.b at
// its offset with the capacity running to the segment's end, so
// cap(line) tells where it starts and whether the next line follows it
// directly.
type slot struct {
	line []byte
	seg  *segment // nil: the line has storage of its own
}

// Ring is a circular log of encoded lines. The zero value retains
// nothing until Init; it is not safe for concurrent use.
type Ring struct {
	window int
	slots  []slot // grows lazily to window, then wraps
	head   int    // index of the oldest retained line
	n      int    // retained lines
	last   uint64 // seq of the newest line pushed (the floor while empty)

	cur    *segment   // the segment lines are appended to
	spare  []byte     // an evicted long line's storage, for the next that fits
	free   []*segment // empty segments, at most two
	enc    *json.Encoder
	pushed []byte // the line PushJSON's encoder pushed
}

// Init empties the ring, sets how many lines it retains, and positions
// it after floor: the next line pushed is seq floor+1.
func (r *Ring) Init(window int, floor uint64) {
	*r = Ring{window: max(window, 1), last: floor}
}

// Clear forgets every retained line (the current segment and up to two
// more are kept for reuse); sequence numbering continues after Last.
func (r *Ring) Clear() {
	for k := 0; k < r.n; k++ {
		i := r.index(k)
		r.release(r.slots[i])
		r.slots[i] = slot{}
	}
	r.head, r.n = 0, 0
}

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

// Push retains a copy of line (newline included), which the caller
// built in storage of its own and may reuse at once, as seq Next,
// evicting the oldest line once the window is full. It returns the
// retained copy.
func (r *Ring) Push(line []byte) []byte {
	i := r.head // full: overwrite the oldest
	if r.n < r.window {
		// Still filling, so never wrapped since Init or Clear: head is 0.
		if i = r.n; i == len(r.slots) {
			r.slots = append(r.slots, slot{})
		}
		r.n++
	} else {
		r.release(r.slots[i])
		if r.head++; r.head == r.window {
			r.head = 0
		}
	}
	s := r.store(line)
	r.slots[i] = s
	r.last++
	return s.line[:len(line):len(line)]
}

// store copies line into the current segment, starting the next one
// when it does not fit, or into storage of its own — the spare, when it
// is large enough — when it is longer than ownMin.
func (r *Ring) store(line []byte) slot {
	if len(line) > ownMin {
		b := r.spare
		if cap(b) < len(line) {
			b = nil
		} else {
			r.spare = nil
		}
		return slot{line: append(b[:0], line...)}
	}
	g := r.cur
	if g == nil || int(g.n)+len(line) > len(g.b) {
		if k := len(r.free); k > 0 {
			g, r.free = r.free[k-1], r.free[:k-1]
		} else {
			g = new(segment)
		}
		r.cur = g
	}
	off := int(g.n)
	g.n += int32(copy(g.b[off:], line))
	g.live++
	return slot{line: g.b[off:g.n], seg: g}
}

// release drops an evicted line's hold on its segment. The segment the
// last one leaves is rewound: the current one in place, any other onto
// the free list while it holds fewer than two. A line with storage of
// its own leaves it as the spare when it is larger than the spare and
// no more than KeepMax.
func (r *Ring) release(s slot) {
	g := s.seg
	if g == nil {
		if c := cap(s.line); c > cap(r.spare) && c <= KeepMax {
			r.spare = s.line[:0]
		}
		return
	}
	if g.live--; g.live > 0 {
		return
	}
	g.n = 0
	if g != r.cur && len(r.free) < 2 {
		r.free = append(r.free, g)
	}
}

// PushJSON encodes v as one JSON line (as json.Encoder does, newline
// included) and pushes it, returning the retained copy. The caller
// stamps Next into v first. On an encoding error nothing is pushed.
func (r *Ring) PushJSON(v any) ([]byte, error) {
	if r.enc == nil {
		r.enc = json.NewEncoder((*stage)(r))
	}
	if err := r.enc.Encode(v); err != nil {
		return nil, err
	}
	line := r.pushed
	r.pushed = nil
	return line, nil
}

// stage is the io.Writer PushJSON's encoder hands the finished line
// to, in one Write, and only once the value encoded.
type stage Ring

func (s *stage) Write(p []byte) (int, error) {
	s.pushed = (*Ring)(s).Push(p)
	return len(p), nil
}

// index returns the slot of the k-th oldest retained line.
func (r *Ring) index(k int) int {
	if i := r.head + k; i < r.window {
		return i
	}
	return r.head + k - r.window
}

// WriteAfter writes every retained line with a seq greater than after
// to w, oldest first, as the bytes that were pushed: lines that sit
// next to each other in one segment go out in one Write. The caller
// checks Covers first; lines already evicted are simply not written.
func (r *Ring) WriteAfter(w io.Writer, after uint64) error {
	skip := 0
	if old := r.Oldest(); after >= old {
		skip = int(min(after-old+1, uint64(r.n)))
	}
	var run []byte
	var seg *segment
	for k := skip; k < r.n; k++ {
		s := r.slots[r.index(k)]
		if s.seg != nil && s.seg == seg && cap(run)-len(run) == cap(s.line) {
			run = run[:len(run)+len(s.line)]
			continue
		}
		if err := writeRun(w, run); err != nil {
			return err
		}
		run, seg = s.line, s.seg
	}
	return writeRun(w, run)
}

func writeRun(w io.Writer, run []byte) error {
	if len(run) == 0 {
		return nil
	}
	_, err := w.Write(run)
	return err
}
