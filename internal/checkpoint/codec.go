// Package checkpoint implements the durable-runtime on-disk format: one
// little-endian primitive codec, the Walker, and an atomic, checksummed,
// generational Store (temp file + fsync + rename) with
// newest-valid-first recovery, per ROADMAP direction 3 and the
// partially-constrained-log recovery discipline (arXiv:1901.06491).
//
// A Walker runs over the format in a direction fixed when it is made —
// Encode appends to a byte slice, Decode reads one — and every
// primitive takes a pointer: encoding writes what it points at,
// decoding fills it. A producing layer therefore describes each of its
// structs once, as a function that walks the fields in file order, and
// that one function is both the encoder and the decoder. The rule that
// follows: a field is added in one place. Only what one direction alone
// must do (allocate, validate a shape, intern a reference) sits behind
// Encoding/Decoding inside the walk.
//
// Format invariants (see ROADMAP "Durability architecture"):
//
//   - every file starts with the 8-byte magic "GRETACK1" and ends with
//     a CRC32-Castagnoli of everything before it (magic included);
//   - all integers are little-endian fixed width; all collections are
//     length-prefixed and key-ordered, so encoding is deterministic:
//     encode(decode(encode(x))) == encode(x) byte for byte;
//   - the body is versioned by the producing layer (internal/core
//     writes its own version word first), so the Store never needs to
//     understand body contents.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt reports structurally invalid checkpoint bytes. Decoding
// returns it (wrapped) instead of panicking on any malformed input.
var ErrCorrupt = errors.New("checkpoint: corrupt data")

// Walker is the codec: little-endian primitives over a byte slice, in
// one direction, with a sticky error — after the first failure every
// later call is a no-op and Err returns it. Decoding validates every
// length against the remaining input, so corrupt data yields ErrCorrupt
// instead of a panic or an attacker-controlled allocation. A Walker is
// a concrete type so the pointers handed to it do not escape.
type Walker struct {
	buf []byte
	pos int // decoding: the read cursor
	enc bool
	err error
}

// Encode returns a Walker appending to dst.
func Encode(dst []byte) Walker { return Walker{buf: dst, enc: true} }

// Decode returns a Walker reading src.
func Decode(src []byte) Walker { return Walker{buf: src} }

// Encoding reports the direction.
func (w *Walker) Encoding() bool { return w.enc }

// Decoding reports whether values are being filled from the input and
// none has failed to: the guard for decode-only validation.
func (w *Walker) Decoding() bool { return !w.enc && w.err == nil }

// Err returns the first failure, if any.
func (w *Walker) Err() error { return w.err }

// Out returns the bytes encoded so far (dst included).
func (w *Walker) Out() []byte { return w.buf }

// Remaining returns the number of unread input bytes.
func (w *Walker) Remaining() int { return len(w.buf) - w.pos }

// Fail records err (a value that would not marshal, a layer below that
// refused the input) unless an earlier failure stands.
func (w *Walker) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Corrupt records a corruption error with context.
func (w *Walker) Corrupt(format string, args ...any) {
	w.Fail(fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), w.pos))
}

// take returns the next n input bytes, or nil after a failure.
func (w *Walker) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if w.Remaining() < n {
		w.Corrupt("need %d bytes, have %d", n, w.Remaining())
		return nil
	}
	b := w.buf[w.pos : w.pos+n]
	w.pos += n
	return b
}

// U8 walks one byte.
func (w *Walker) U8(v *uint8) {
	if w.enc {
		w.buf = append(w.buf, *v)
	} else if b := w.take(1); b != nil {
		*v = b[0]
	}
}

// Bool walks a bool as one byte, 0 or 1; decoding rejects any other.
func (w *Walker) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if w.U8(&b); b > 1 {
		w.Corrupt("invalid bool byte")
	} else if !w.enc {
		*v = b == 1
	}
}

// U32 walks a little-endian uint32.
func (w *Walker) U32(v *uint32) {
	if w.enc {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, *v)
	} else if b := w.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 walks a little-endian uint64.
func (w *Walker) U64(v *uint64) {
	if w.enc {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, *v)
	} else if b := w.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// I64 walks a little-endian int64.
func (w *Walker) I64(v *int64) {
	u := uint64(*v)
	if w.U64(&u); !w.enc {
		*v = int64(u)
	}
}

// Int walks an int as a little-endian int64.
func (w *Walker) Int(v *int) {
	u := uint64(*v)
	if w.U64(&u); !w.enc {
		*v = int(u)
	}
}

// F64 walks a float64 as its IEEE-754 bit pattern (NaN payloads and
// signed zeros round-trip exactly).
func (w *Walker) F64(v *float64) {
	u := math.Float64bits(*v)
	if w.U64(&u); !w.enc {
		*v = math.Float64frombits(u)
	}
}

// Len walks a u32 element count: encoding writes n, decoding returns
// the count read (0 after a failure). Each element occupies at least
// elemSize bytes, which bounds the count by the remaining input so a
// corrupt one cannot drive a huge allocation.
func (w *Walker) Len(n, elemSize int) int {
	u := uint32(n)
	w.U32(&u)
	if w.enc {
		return n
	}
	if w.err != nil {
		return 0
	}
	if int(u) > w.Remaining()/max(elemSize, 1) {
		w.Corrupt("length %d exceeds remaining input", u)
		return 0
	}
	return int(u)
}

// String walks a length-prefixed string.
func (w *Walker) String(v *string) {
	if n := w.Len(len(*v), 1); w.enc {
		w.buf = append(w.buf, *v...)
	} else if b := w.take(n); b != nil {
		*v = string(b)
	}
}

// Bytes walks a length-prefixed byte slice; decoding copies, so the
// value is safe to retain, and reads an empty one as nil.
func (w *Walker) Bytes(v *[]byte) {
	if n := w.Len(len(*v), 1); w.enc {
		w.buf = append(w.buf, *v...)
	} else if b := w.take(n); b != nil {
		*v = append([]byte(nil), b...)
	}
}
