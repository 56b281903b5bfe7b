package netstream

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strconv"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/event"
)

// The batch frame — {"cmd":"batch","seq":…,"type":…,"time":0,
// "times":[…],"cols":{…},"scols":{…},"gi":…,"rh":[…]}, or "rgs"/"rhs"
// for "gi"/"rh" — is what a shard link sends once per block of events,
// so like the event line it has a codec of its own on both ends, the
// bytes staying encoding/json's for a WireEvent: the sender appends with
// strconv from the columns it holds, the server parses in one pass into
// scratch columns (batchLine). A frame the parser is not certain to read
// as encoding/json would is decoded there and converted to a batchLine,
// so a batch is applied one way.

// BatchFrame is a columnar batch frame as its sender holds it: one
// timestamp per row and, per attribute, one value per row, the columns
// in strictly ascending name order (the order encoding/json writes map
// keys in). A shard link's frames also route each row, by partition
// hash: row i goes to the (route group, hash) pairs
// RGs[RowEnd[i-1]:RowEnd[i]], RHs[RowEnd[i-1]:RowEnd[i]]. The sender
// may reuse every slice once SendBatchFrame returns.
type BatchFrame struct {
	Type  string
	Times []int64
	Nums  []string // numeric column names
	Cols  [][]float64
	Strs  []string // string column names
	SCols [][]string

	RowEnd []int
	RGs    []int
	RHs    []uint64
}

// check validates what the encoder indexes by and the server checks: a
// type, one value per row in every column, route info for every row.
func (f *BatchFrame) check() error {
	n := len(f.Times)
	switch {
	case f.Type == "":
		return errors.New("missing type")
	case len(f.Cols) != len(f.Nums) || len(f.SCols) != len(f.Strs):
		return errors.New("columns and column names differ in number")
	case len(f.RowEnd) != 0 && (len(f.RowEnd) != n || f.RowEnd[n-1] != len(f.RGs) || len(f.RGs) != len(f.RHs) || !slices.IsSorted(f.RowEnd)):
		return errors.New("route info does not fit the rows")
	}
	for k, col := range f.Cols {
		if len(col) != n {
			return fmt.Errorf("column %q has %d values, want %d", f.Nums[k], len(col), n)
		}
	}
	for k, col := range f.SCols {
		if len(col) != n {
			return fmt.Errorf("column %q has %d values, want %d", f.Strs[k], len(col), n)
		}
	}
	return nil
}

// appendBatchFrame appends the line json.Marshal produces for the frame
// as a WireEvent (Cmd "batch", Seq seq, the columns as maps, the hashes
// in hex; GI and one RH per row when every row has one pair and all are
// of one group, the per-row RGs/RHs lists otherwise), newline included.
// A NaN or infinite value fails as it does there, before dst is touched.
func appendBatchFrame(dst []byte, seq uint64, f *BatchFrame) ([]byte, error) {
	for _, col := range f.Cols {
		for _, v := range col {
			if v-v != 0 { // NaN or ±Inf: let encoding/json word the error
				_, err := json.Marshal(v)
				return dst, err
			}
		}
	}
	dst = append(dst, `{"cmd":"batch"`...)
	if seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), seq, 10)
	}
	dst = appendJSONString(append(dst, `,"type":`...), f.Type)
	dst = append(dst, `,"time":0`...)
	if len(f.Times) > 0 {
		dst = appendJSONArray(append(dst, `,"times":`...), f.Times, func(dst []byte, t int64) []byte { return strconv.AppendInt(dst, t, 10) })
	}
	dst = appendColumns(dst, `,"cols":{`, f.Nums, f.Cols, appendJSONFloat)
	dst = appendColumns(dst, `,"scols":{`, f.Strs, f.SCols, appendJSONString)
	compact := len(f.RGs) == len(f.RowEnd)
	for i := 0; compact && i < len(f.RowEnd); i++ {
		compact = f.RowEnd[i] == i+1 && f.RGs[i] == f.RGs[0]
	}
	switch {
	case len(f.RowEnd) == 0:
	case compact:
		if f.RGs[0] != 0 {
			dst = strconv.AppendInt(append(dst, `,"gi":`...), int64(f.RGs[0]), 10)
		}
		dst = appendJSONArray(append(dst, `,"rh":`...), f.RHs, appendHash)
	default:
		dst = appendRows(append(dst, `,"rgs":`...), f.RowEnd, f.RGs, func(dst []byte, gi int) []byte { return strconv.AppendInt(dst, int64(gi), 10) })
		dst = appendRows(append(dst, `,"rhs":`...), f.RowEnd, f.RHs, appendHash)
	}
	return append(dst, '}', '\n'), nil
}

// appendColumns appends a non-empty column set, behind open, as the JSON
// object of a map from name to value array; a nil column is null, as a
// nil slice is to encoding/json.
func appendColumns[T any](dst []byte, open string, names []string, cols [][]T, elem func([]byte, T) []byte) []byte {
	for k, a := range names {
		dst = append(appendJSONString(append(dst, open...), a), ':')
		if open = ","; cols[k] == nil {
			dst = append(dst, "null"...)
		} else {
			dst = appendJSONArray(dst, cols[k], elem)
		}
	}
	if len(names) > 0 {
		dst = append(dst, '}')
	}
	return dst
}

func appendJSONArray[T any](dst []byte, vs []T, elem func([]byte, T) []byte) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, v)
	}
	return append(dst, ']')
}

// appendRows appends the per-row lists flat[rowEnd[i-1]:rowEnd[i]].
func appendRows[T any](dst []byte, rowEnd []int, flat []T, elem func([]byte, T) []byte) []byte {
	lo, open := 0, byte('[')
	for _, hi := range rowEnd {
		dst = appendJSONArray(append(dst, open), flat[lo:hi], elem)
		lo, open = hi, ','
	}
	return append(dst, ']')
}

// appendHash appends a route hash as the wire carries it: a quoted
// lower-case hex string.
func appendHash(dst []byte, h uint64) []byte {
	return append(strconv.AppendUint(append(dst, '"'), h, 16), '"')
}

// batchLine is a decoded batch frame: read by the one-pass parser (names
// and string values are spans into the line, valid until the reader's
// next Scan; one batchLine serves a connection for life) or converted
// from the generic path's WireEvent. Values are column-major — column
// k's value of row i is vals[k*len(times)+i] — and the route info is in
// BatchFrame's form whichever the wire had, hashes parsed.
type batchLine struct {
	seq   uint64
	typ   []byte
	times []int64
	nums  [][]byte // numeric column names, strictly ascending
	vals  []float64
	strs  [][]byte // string column names, strictly ascending
	svals [][]byte

	rowEnd []int
	rgs    []int
	rhs    []uint64
}

// parse reads b as a batch frame. It reports false — leaving the line to
// json.Unmarshal — unless b is certain to decode to the same frame there
// and to pass the same checks: exactly the keys cmd/seq/type/time/times/
// cols/scols/gi/rh/rgs/rhs in lower case, at most once each, cmd "batch",
// a non-empty type, "times" ahead of the columns and route lists, plain
// integers, strings without escapes or invalid UTF-8, column names
// strictly ascending, one value per row in every column, and route info
// absent or complete — "rh" with a hash per row, or "rgs" then "rhs" with
// a list per row and as many hashes as groups in each — every hash 1 to
// 16 lower-case hex digits. The decision is a function of the bytes alone.
func (bl *batchLine) parse(b []byte) bool {
	bl.reset()
	gi := 0
	const kCmd, kSeq, kType, kTime, kTimes, kCols, kSCols, kGI, kRH, kRGs, kRHs = 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024
	seen := 0
	i, ok := scanObject(b, skipSpace(b, 0), false, func(key []byte, i int) (int, bool) {
		bit, ok := 0, false
		switch string(key) {
		case "cmd":
			bit = kCmd
			var cmd []byte
			cmd, i, ok = scanString(b, i)
			ok = ok && string(cmd) == "batch"
		case "seq":
			bit = kSeq
			var neg bool
			bl.seq, neg, i, ok = scanInteger(b, i)
			ok = ok && !neg
		case "type":
			bit = kType
			bl.typ, i, ok = scanString(b, i)
			ok = ok && len(bl.typ) > 0
		case "time":
			bit = kTime
			_, i, ok = scanInt64(b, i)
		case "times":
			bit = kTimes
			i, ok = scanArray(b, i, func(i int) (int, bool) {
				t, end, ok := scanInt64(b, i)
				bl.times = append(bl.times, t)
				return end, ok
			})
			ok = ok && seen&(kCols|kSCols|kRH|kRGs|kRHs) == 0
		case "cols":
			bit = kCols
			i, ok = scanObject(b, i, true, func(name []byte, i int) (int, bool) {
				bl.nums = append(bl.nums, name)
				end, ok := scanArray(b, i, func(i int) (int, bool) {
					v, end, ok := scanFloat(b, i)
					bl.vals = append(bl.vals, v)
					return end, ok
				})
				return end, ok && len(bl.vals) == len(bl.nums)*len(bl.times)
			})
		case "scols":
			bit = kSCols
			i, ok = scanObject(b, i, true, func(name []byte, i int) (int, bool) {
				bl.strs = append(bl.strs, name)
				end, ok := scanArray(b, i, func(i int) (int, bool) {
					val, end, ok := scanString(b, i)
					bl.svals = append(bl.svals, val)
					return end, ok
				})
				return end, ok && len(bl.svals) == len(bl.strs)*len(bl.times)
			})
		case "gi":
			bit = kGI
			gi, i, ok = scanInt(b, i)
		case "rh":
			bit = kRH
			bl.rhs, i, ok = scanHashes(b, i, bl.rhs)
			ok = ok && len(bl.rhs) == len(bl.times) && seen&kRGs == 0
		case "rgs":
			bit = kRGs
			i, ok = scanArray(b, i, func(i int) (int, bool) {
				end, ok := scanArray(b, i, func(i int) (int, bool) {
					gi, end, ok := scanInt(b, i)
					bl.rgs = append(bl.rgs, gi)
					return end, ok
				})
				bl.rowEnd = append(bl.rowEnd, len(bl.rgs))
				return end, ok
			})
			ok = ok && len(bl.rowEnd) == len(bl.times) && seen&kRH == 0
		case "rhs":
			bit = kRHs
			row := 0
			i, ok = scanArray(b, i, func(i int) (end int, ok bool) {
				bl.rhs, end, ok = scanHashes(b, i, bl.rhs)
				row++
				return end, ok && row <= len(bl.rowEnd) && len(bl.rhs) == bl.rowEnd[row-1]
			})
			ok = ok && seen&kRGs != 0 && row == len(bl.rowEnd)
		}
		ok = ok && seen&bit == 0
		seen |= bit
		return i, ok
	})
	if seen&kRH != 0 { // the compact form: one pair a row
		for i := range bl.rhs {
			bl.rgs, bl.rowEnd = append(bl.rgs, gi), append(bl.rowEnd, i+1)
		}
	}
	return ok && skipSpace(b, i) == len(b) && seen&kCmd != 0 && seen&kType != 0 && (seen&kRGs != 0) == (seen&kRHs != 0)
}

// scanInt reads a plain JSON integer at b[i] that fits an int.
func scanInt(b []byte, i int) (int, int, bool) {
	v, end, ok := scanInt64(b, i)
	return int(v), end, ok && int64(int(v)) == v
}

// scanHashes reads an array of route hashes at b[i] — what appendHash
// writes, nothing ParseUint would merely tolerate — appending to dst.
func scanHashes(b []byte, i int, dst []uint64) ([]uint64, int, bool) {
	end, ok := scanArray(b, i, func(i int) (int, bool) {
		s, end, ok := scanString(b, i)
		var h uint64
		for _, c := range s {
			switch {
			case c >= '0' && c <= '9':
				c -= '0'
			case c >= 'a' && c <= 'f':
				c -= 'a' - 10
			default:
				return end, false
			}
			h = h<<4 | uint64(c)
		}
		dst = append(dst, h)
		return end, ok && len(s) > 0 && len(s) <= 16
	})
	return dst, end, ok
}

// reset empties bl, keeping the storage its slices grew.
func (bl *batchLine) reset() {
	bl.seq, bl.typ = 0, nil
	bl.times, bl.nums, bl.vals, bl.strs, bl.svals = bl.times[:0], bl.nums[:0], bl.vals[:0], bl.strs[:0], bl.svals[:0]
	bl.rowEnd, bl.rgs, bl.rhs = bl.rowEnd[:0], bl.rgs[:0], bl.rhs[:0]
}

// fromWire converts a batch frame the generic path decoded, with the
// shape checks the parser makes; route adds the route info, which only a
// shard session looks at. It fills the storage the parser grew, so a
// connection's frames keep one set of buffers whichever path decodes them.
func (bl *batchLine) fromWire(we *WireEvent, route bool) error {
	bl.reset()
	bl.seq, bl.typ, bl.times = we.Seq, []byte(we.Type), append(bl.times, we.Times...)
	if we.Type == "" {
		return errors.New("missing type")
	}
	n := len(we.Times)
	for _, a := range slices.Sorted(maps.Keys(we.Cols)) {
		if col := we.Cols[a]; len(col) != n {
			return fmt.Errorf("column %q has %d values, want %d", a, len(col), n)
		}
		bl.nums, bl.vals = append(bl.nums, []byte(a)), append(bl.vals, we.Cols[a]...)
	}
	for _, a := range slices.Sorted(maps.Keys(we.SCols)) {
		if col := we.SCols[a]; len(col) != n {
			return fmt.Errorf("column %q has %d values, want %d", a, len(col), n)
		}
		bl.strs = append(bl.strs, []byte(a))
		for _, v := range we.SCols[a] {
			bl.svals = append(bl.svals, []byte(v))
		}
	}
	if !route {
		return nil
	}
	rgs, rhs := we.RGs, we.RHs
	if rgs == nil { // the compact form: one pair a row, all of group GI
		rhs = nil
		for _, hx := range we.RH {
			rgs, rhs = append(rgs, []int{we.GI}), append(rhs, []string{hx})
		}
	}
	if len(rgs) != len(rhs) {
		return errors.New("rgs/rhs length mismatch")
	}
	for i, rg := range rgs {
		if len(rhs[i]) != len(rg) {
			return fmt.Errorf("row %d rg/rh length mismatch", i)
		}
		for _, hx := range rhs[i] {
			h, err := strconv.ParseUint(hx, 16, 64)
			if err != nil {
				return fmt.Errorf("bad route hash %q", hx)
			}
			bl.rhs = append(bl.rhs, h)
		}
		bl.rgs, bl.rowEnd = append(bl.rgs, rg...), append(bl.rowEnd, len(bl.rgs)+len(rg))
	}
	return nil
}

// fillRowLocked writes row i of a decoded frame into an event's slot
// arrays, string values interned. sess.mu held.
func (sess *session) fillRowLocked(bl *batchLine, i int, ev *greta.Event) {
	n := len(bl.times)
	for k := range bl.nums {
		ev.Num[k] = bl.vals[k*n+i]
	}
	for k := range bl.strs {
		ev.StrV[k] = sess.internLocked(bl.svals[k*n+i])
	}
}

// batchLocked lays rows skip.. of a decoded frame out as one event batch
// under the session's schema for its shape — the batch's header and four
// slabs are the only allocations — with the engine ids after sess.evID,
// which the caller commits as it applies the rows. sess.mu held.
func (sess *session) batchLocked(bl *batchLine, skip int) *greta.Batch {
	sch := event.InternShape(&sess.shapes, bl.typ, bl.nums, bl.strs)
	size := 0
	if rows := len(bl.times) - skip; rows > 0 {
		// Batch.Append grows by doubling from 16 rows: starting at the size
		// it would reach allocates the slabs once.
		size = max(16, 1<<bits.Len(uint(rows-1)))
	}
	b := greta.NewBatch(sch, size)
	for i := skip; i < len(bl.times); i++ {
		b.Append(sess.evID+uint64(i-skip)+1, bl.times[i], nil, nil)
		sess.fillRowLocked(bl, i, b.Row(i-skip))
	}
	return b
}
