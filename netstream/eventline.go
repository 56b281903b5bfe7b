package netstream

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/event"
)

// The event line — {"seq":…,"type":…,"time":…,"attrs":{…},"str":{…}} —
// is the one frame a per-event producer sends once per event, so it
// gets a codec of its own on both ends. The bytes stay exactly what
// encoding/json produces for a WireEvent (old peers interoperate, the
// differentials and fuzzers pin it); only the work is different: the
// client appends with strconv instead of reflecting over the struct and
// its maps, and the server parses in one pass into spans it binds to a
// cached schema instead of filling a WireEvent and two fresh maps.
// Every other frame kind, and every event line the parser is not
// certain to read as encoding/json would, takes the generic path.

// eventEncoder appends event lines; keys is its sort scratch.
type eventEncoder struct{ keys []string }

// appendLine appends the line json.Marshal(WireEvent{Seq: seq, Type: typ,
// Time: t, Attrs: attrs, Str: strs}) would produce, newline included.
// A NaN or infinite attribute fails as it does there, before dst is
// touched.
func (e *eventEncoder) appendLine(dst []byte, seq uint64, typ string, t int64, attrs map[string]float64, strs map[string]string) ([]byte, error) {
	for _, v := range attrs {
		if v-v != 0 { // NaN or ±Inf: let encoding/json word the error
			_, err := json.Marshal(WireEvent{Attrs: attrs})
			return dst, err
		}
	}
	dst = append(dst, '{')
	if seq != 0 {
		dst = append(dst, `"seq":`...)
		dst = strconv.AppendUint(dst, seq, 10)
		dst = append(dst, ',')
	}
	if typ != "" {
		dst = append(dst, `"type":`...)
		dst = appendJSONString(dst, typ)
		dst = append(dst, ',')
	}
	dst = append(dst, `"time":`...)
	dst = strconv.AppendInt(dst, t, 10)
	dst = appendMap(dst, `,"attrs":{`, &e.keys, attrs, appendJSONFloat)
	dst = appendMap(dst, `,"str":{`, &e.keys, strs, appendJSONString)
	return append(dst, '}', '\n'), nil
}

// appendMap appends a non-empty map as the JSON object encoding/json
// makes of it, keys sorted (in the scratch keys), behind open.
func appendMap[V any](dst []byte, open string, keys *[]string, m map[string]V, elem func([]byte, V) []byte) []byte {
	if len(m) == 0 {
		return dst
	}
	*keys = (*keys)[:0]
	for k := range m {
		*keys = append(*keys, k)
	}
	slices.Sort(*keys)
	for _, k := range *keys {
		dst = append(appendJSONString(append(dst, open...), k), ':')
		dst, open = elem(dst, m[k]), ","
	}
	return append(dst, '}')
}

// appendJSONString quotes s as encoding/json does. Printable ASCII
// without JSON or HTML metacharacters is copied; anything that needs an
// escape (or a UTF-8 check) is handed to encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat formats a finite float64 as encoding/json does:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21,
// with a two-digit negative exponent trimmed (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	// An integer below 2^53 is its own shortest decimal (counts, sizes and
	// ids are most of what streams carry): no float formatting needed.
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10)
	}
	format := byte('f')
	if abs := max(f, -f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// eventLine is the parser's view of one event line: values, and name
// and string spans pointing into the line (valid until the reader's
// next Scan). One is reused for a connection's whole life.
type eventLine struct {
	seq   uint64
	time  int64
	typ   []byte
	nums  [][]byte // numeric attribute names, with their values in vals
	vals  []float64
	strs  [][]byte // string attribute names, with their values in svals
	svals [][]byte
}

// parse reads b as an event line. It reports false — leaving the line
// to json.Unmarshal — unless b is certain to decode to the same event
// there: exactly the keys seq/type/time/attrs/str in lower case, at
// most once each, a non-empty type, plain integers, strings without
// escapes or invalid UTF-8, attribute names non-empty, strictly
// ascending and not shared between attrs and str, and no empty string
// value (the dense form reads "" as absent). The decision is a function
// of the bytes alone.
func (el *eventLine) parse(b []byte) bool {
	el.seq, el.time, el.typ = 0, 0, nil
	el.nums, el.vals, el.strs, el.svals = el.nums[:0], el.vals[:0], el.strs[:0], el.svals[:0]
	const kSeq, kType, kTime, kAttrs, kStr = 1, 2, 4, 8, 16
	seen := 0
	i, ok := scanObject(b, skipSpace(b, 0), false, func(key []byte, i int) (int, bool) {
		bit, ok := 0, false
		switch string(key) {
		case "seq":
			bit = kSeq
			var neg bool
			el.seq, neg, i, ok = scanInteger(b, i)
			ok = ok && !neg
		case "type":
			bit = kType
			el.typ, i, ok = scanString(b, i)
			ok = ok && len(el.typ) > 0
		case "time":
			bit = kTime
			el.time, i, ok = scanInt64(b, i)
		case "attrs":
			bit = kAttrs
			i, ok = scanObject(b, i, true, func(name []byte, i int) (int, bool) {
				v, end, ok := scanFloat(b, i)
				el.nums, el.vals = append(el.nums, name), append(el.vals, v)
				return end, ok && len(name) > 0
			})
		case "str":
			bit = kStr
			i, ok = scanObject(b, i, true, func(name []byte, i int) (int, bool) {
				val, end, ok := scanString(b, i)
				el.strs, el.svals = append(el.strs, name), append(el.svals, val)
				return end, ok && len(name) > 0 && len(val) > 0
			})
		}
		ok = ok && seen&bit == 0
		seen |= bit
		return i, ok
	})
	if !ok || seen&kType == 0 || skipSpace(b, i) != len(b) {
		return false
	}
	for _, n := range el.nums {
		for _, s := range el.strs {
			if bytes.Equal(n, s) {
				return false
			}
		}
	}
	return true
}

// scanObject reads a JSON object at b[i], handing each member's key and
// the index its value starts at to member, which returns where the value
// ends. With sorted set the keys must be strictly ascending.
func scanObject(b []byte, i int, sorted bool, member func(key []byte, val int) (end int, ok bool)) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return i, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	var prev []byte
	for first, more := true, true; more; first = false {
		key, val, ok := scanKey(b, i)
		if !ok || (sorted && !first && bytes.Compare(prev, key) >= 0) {
			return i, false
		}
		prev = key
		if i, ok = member(key, val); !ok {
			return i, false
		}
		if i, more, ok = scanSep(b, i, '}'); !ok {
			return i, false
		}
	}
	return i, true
}

// scanArray reads a JSON array at b[i], handing each element's start to
// elem, which returns where the element ends.
func scanArray(b []byte, i int, elem func(i int) (end int, ok bool)) (int, bool) {
	if i >= len(b) || b[i] != '[' {
		return i, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for more := true; more; {
		var ok bool
		if i, ok = elem(i); !ok {
			return i, false
		}
		if i, more, ok = scanSep(b, i, ']'); !ok {
			return i, false
		}
	}
	return i, true
}

// scanKey reads "key": at b[i] and returns the key and the index its
// value starts at.
func scanKey(b []byte, i int) (key []byte, val int, ok bool) {
	key, i, ok = scanString(b, i)
	if i = skipSpace(b, i); !ok || i == len(b) || b[i] != ':' {
		return nil, i, false
	}
	return key, skipSpace(b, i+1), true
}

// scanSep reads what follows a member of an object (end is '}') or an
// element of an array (end is ']'): a comma (more is true, next is where
// the following one starts) or the closing byte (next is just past it).
func scanSep(b []byte, i int, end byte) (next int, more, ok bool) {
	if i = skipSpace(b, i); i == len(b) {
		return i, false, false
	}
	switch b[i] {
	case ',':
		return skipSpace(b, i+1), true, true
	case end:
		return i + 1, false, true
	}
	return i, false, false
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// scanString reads a JSON string at b[i] that needs no unquoting: no
// escapes, no control bytes, valid UTF-8. It returns the bytes between
// the quotes and the index after the closing one.
func scanString(b []byte, i int) (s []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	i++
	ascii := true
	for j := i; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s = b[i:j]
			return s, j + 1, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, j, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, len(b), false
}

// scanInteger reads a JSON number at b[i] that is a plain integer (no
// fraction, no exponent) of magnitude below 2^64.
func scanInteger(b []byte, i int) (u uint64, neg bool, end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (1<<64-1-d)/10 {
			return 0, neg, i, false
		}
		u = u*10 + d
	}
	if i == start || (b[start] == '0' && i > start+1) {
		return 0, neg, i, false // no digits, or a leading zero
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, neg, i, false
	}
	return u, neg, i, true
}

// scanInt64 reads a plain JSON integer at b[i] that fits an int64.
func scanInt64(b []byte, i int) (v int64, end int, ok bool) {
	u, neg, end, ok := scanInteger(b, i)
	if neg {
		return -int64(u), end, ok && u <= 1<<63
	}
	return int64(u), end, ok && u <= 1<<63-1
}

// scanFloat reads a JSON number at b[i] as encoding/json does, with
// strconv.ParseFloat (the literal is at most a few dozen bytes, so the
// conversion stays on the stack).
func scanFloat(b []byte, i int) (v float64, end int, ok bool) {
	if end, ok = scanNumber(b, i); !ok {
		return 0, end, false
	}
	v, err := strconv.ParseFloat(string(b[i:end]), 64)
	return v, end, err == nil
}

// scanNumber returns the end of the JSON number literal at b[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) (end int, ok bool) {
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return i, false
		}
	}
	return i, true
}

// maxInterned bounds a session's string-value intern table; values
// past it are still correct, they just cost their own allocations.
const maxInterned = 4096

// internLocked returns val as a string the session has seen before, if
// it has. sess.mu held.
func (sess *session) internLocked(val []byte) string {
	s, ok := sess.interned[string(val)]
	if !ok {
		s = string(val)
		if sess.interned == nil {
			sess.interned = map[string]string{}
		}
		if len(sess.interned) < maxInterned {
			sess.interned[s] = s
		}
	}
	return s
}

// slabEvents is the fewest events a slab the carver replaces holds.
const slabEvents = 64

// newEventLocked carves an event with nw numeric and sw string slots
// off the session's slabs; rows counts the events the caller is about
// to carve, this one included. A slab is replaced only when exhausted,
// by one for max(rows, slabEvents) events, so a frame's rows cost about
// three allocations however many there are, and a lone event about
// 3/slabEvents. sess.mu held.
func (sess *session) newEventLocked(nw, sw, rows int) *greta.Event {
	ev := &carve(&sess.evSlab, 1, rows)[0]
	ev.Num, ev.StrV = carve(&sess.numSlab, nw, rows), carve(&sess.strSlab, sw, rows)
	return ev
}

// carve cuts n elements off the spare capacity of *slab (its length is
// what has been carved), replacing the slab when fewer than n are left.
// The piece's capacity is its length, so an append to it copies instead
// of reaching the next piece. n == 0 carves nil.
func carve[T any](slab *[]T, n, rows int) []T {
	if n == 0 {
		return nil
	}
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(rows, slabEvents)*n)
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// bindLocked turns a parsed event line into the schema-bound event the
// runtime keeps: the schema comes from the session's shape cache (the
// one batch frames use), attribute names live in the schema, string
// values are interned, and the event and its slots are carved off the
// session's slabs, so in the steady state a line allocates nothing but
// its share of a slab. sess.mu held.
func (sess *session) bindLocked(el *eventLine, id uint64) *greta.Event {
	sch := event.InternShape(&sess.shapes, el.typ, el.nums, el.strs)
	ev := sess.newEventLocked(len(el.vals), len(el.svals), 1)
	ev.ID, ev.Type, ev.Time, ev.Sch = id, sch.Type, el.time, sch
	copy(ev.Num, el.vals)
	for i, v := range el.svals {
		ev.StrV[i] = sess.internLocked(v)
	}
	return ev
}
