package netstream

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"unicode/utf8"

	"github.com/greta-cep/greta"
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
	if len(attrs) > 0 {
		dst = append(dst, `,"attrs":{`...)
		e.keys = e.keys[:0]
		for k := range attrs {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		for i, k := range e.keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = appendJSONFloat(dst, attrs[k])
		}
		dst = append(dst, '}')
	}
	if len(strs) > 0 {
		dst = append(dst, `,"str":{`...)
		e.keys = e.keys[:0]
		for k := range strs {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		for i, k := range e.keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = appendJSONString(dst, strs[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n'), nil
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
	seq  uint64
	time int64
	typ  []byte
	nums []numSpan
	strs []strSpan
}

type numSpan struct {
	name []byte
	val  float64
}

type strSpan struct{ name, val []byte }

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
	el.nums, el.strs = el.nums[:0], el.strs[:0]
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	const (
		kSeq = 1 << iota
		kType
		kTime
		kAttrs
		kStr
	)
	seen := 0
	for more := true; more; {
		key, j, ok := scanKey(b, i)
		if !ok {
			return false
		}
		i = j
		var bit int
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
			var u uint64
			var neg bool
			u, neg, i, ok = scanInteger(b, i)
			switch {
			case !neg && u <= 1<<63-1:
				el.time = int64(u)
			case neg && u <= 1<<63:
				el.time = -int64(u)
			default:
				ok = false
			}
		case "attrs":
			bit = kAttrs
			i, ok = el.scanMap(b, i, true)
		case "str":
			bit = kStr
			i, ok = el.scanMap(b, i, false)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if i, more, ok = scanSep(b, i); !ok {
			return false
		}
	}
	if seen&kType == 0 || skipSpace(b, i) != len(b) {
		return false
	}
	for _, n := range el.nums {
		for _, s := range el.strs {
			if bytes.Equal(n.name, s.name) {
				return false
			}
		}
	}
	return true
}

// scanMap reads {"name":value,...} at b[i] — numbers into el.nums,
// or non-empty strings into el.strs — with the names non-empty and
// strictly ascending.
func (el *eventLine) scanMap(b []byte, i int, numeric bool) (int, bool) {
	if i == len(b) || b[i] != '{' {
		return i, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	var prev []byte
	for more := true; more; {
		name, j, ok := scanKey(b, i)
		if !ok || len(name) == 0 || (prev != nil && bytes.Compare(prev, name) >= 0) {
			return i, false
		}
		prev = name
		if numeric {
			end, ok := scanNumber(b, j)
			if !ok {
				return j, false
			}
			// The literal is at most a few dozen bytes, so the conversion
			// stays on the stack; ParseFloat is what encoding/json calls.
			v, err := strconv.ParseFloat(string(b[j:end]), 64)
			if err != nil {
				return j, false
			}
			el.nums = append(el.nums, numSpan{name: name, val: v})
			i = end
		} else {
			val, end, ok := scanString(b, j)
			if !ok || len(val) == 0 {
				return j, false
			}
			el.strs = append(el.strs, strSpan{name: name, val: val})
			i = end
		}
		if i, more, ok = scanSep(b, i); !ok {
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

// scanSep reads what follows an object member: a comma (more is true,
// next is where the following key starts) or the closing brace (next is
// just past it).
func scanSep(b []byte, i int) (next int, more, ok bool) {
	if i = skipSpace(b, i); i == len(b) {
		return i, false, false
	}
	switch b[i] {
	case ',':
		return skipSpace(b, i+1), true, true
	case '}':
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
// past it are still correct, they just cost their own allocation.
const maxInterned = 4096

// bindLocked turns a parsed event line into the schema-bound event the
// runtime keeps: the schema comes from the session's shape cache (the
// one batch frames use, same key), attribute names live in the schema,
// and string values are interned, so the event, its numeric slots and
// its string slots are the only allocations. sess.mu held.
func (sess *session) bindLocked(el *eventLine, id uint64) *greta.Event {
	key := append(sess.shapeKey[:0], el.typ...)
	key = append(key, 0)
	for i, a := range el.nums {
		if i > 0 {
			key = append(key, 1)
		}
		key = append(key, a.name...)
	}
	key = append(key, 0)
	for i, a := range el.strs {
		if i > 0 {
			key = append(key, 1)
		}
		key = append(key, a.name...)
	}
	sess.shapeKey = key
	sch := sess.schemas[string(key)]
	if sch == nil {
		sch = &greta.Schema{Type: greta.Type(el.typ)}
		for _, a := range el.nums {
			sch.Numeric = append(sch.Numeric, string(a.name))
		}
		for _, a := range el.strs {
			sch.Strings = append(sch.Strings, string(a.name))
		}
		if sess.schemas == nil {
			sess.schemas = map[string]*greta.Schema{}
		}
		sess.schemas[string(key)] = sch
	}
	ev := &greta.Event{ID: id, Type: sch.Type, Time: el.time, Sch: sch}
	if len(el.nums) > 0 {
		ev.Num = make([]float64, len(el.nums))
		for i, a := range el.nums {
			ev.Num[i] = a.val
		}
	}
	if len(el.strs) > 0 {
		ev.StrV = make([]string, len(el.strs))
		for i, a := range el.strs {
			s, ok := sess.interned[string(a.val)]
			if !ok {
				s = string(a.val)
				if sess.interned == nil {
					sess.interned = map[string]string{}
				}
				if len(sess.interned) < maxInterned {
					sess.interned[s] = s
				}
			}
			ev.StrV[i] = s
		}
	}
	return ev
}
