package netstream

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// checkEventLine is the parser's contract on one input: it either
// declines, or json.Unmarshal accepts the same bytes and yields the same
// event — seq, type, time, and every attribute value bit for bit, with
// no other WireEvent field set — and bindLocked lays exactly those
// values out under a schema naming exactly those attributes.
func checkEventLine(t *testing.T, b []byte) (fast bool) {
	t.Helper()
	var el eventLine
	if !el.parse(b) {
		return false
	}
	var we WireEvent
	if err := json.Unmarshal(b, &we); err != nil {
		t.Fatalf("fast parser accepted %q, encoding/json rejects it: %v", b, err)
	}
	if !reflect.DeepEqual(we, WireEvent{Seq: we.Seq, Type: we.Type, Time: we.Time, Attrs: we.Attrs, Str: we.Str}) {
		t.Fatalf("fast parser accepted %q, which sets non-event fields: %+v", b, we)
	}
	if el.seq != we.Seq || string(el.typ) != we.Type || el.time != we.Time || len(el.nums) != len(we.Attrs) || len(el.strs) != len(we.Str) {
		t.Fatalf("%q: fast seq=%d type=%q time=%d nums=%d strs=%d, encoding/json %+v", b, el.seq, el.typ, el.time, len(el.nums), len(el.strs), we)
	}
	ev := (&session{}).bindLocked(&el, 7)
	if ev.ID != 7 || string(ev.Type) != we.Type || ev.Time != we.Time || ev.Attrs != nil || ev.Str != nil ||
		string(ev.Sch.Type) != we.Type || len(ev.Sch.Numeric) != len(we.Attrs) || len(ev.Sch.Strings) != len(we.Str) {
		t.Fatalf("%q: bound event %+v under schema %+v, encoding/json %+v", b, ev, ev.Sch, we)
	}
	for i, a := range ev.Sch.Numeric {
		v, ok := we.Attrs[a]
		if !ok || math.Float64bits(v) != math.Float64bits(ev.Num[i]) {
			t.Fatalf("%q: attr %q = %v (bits %x), encoding/json %v (present %v)", b, a, ev.Num[i], math.Float64bits(ev.Num[i]), v, ok)
		}
		if i > 0 && ev.Sch.Numeric[i-1] >= a {
			t.Fatalf("%q: schema numeric names not strictly ascending: %q", b, ev.Sch.Numeric)
		}
	}
	for i, a := range ev.Sch.Strings {
		v, ok := we.Str[a]
		if !ok || v != ev.StrV[i] || v == "" {
			t.Fatalf("%q: str %q = %q, encoding/json %q (present %v)", b, a, ev.StrV[i], v, ok)
		}
		if _, both := we.Attrs[a]; both || (i > 0 && ev.Sch.Strings[i-1] >= a) {
			t.Fatalf("%q: schema string names %q not strictly ascending or shared with attrs", b, ev.Sch.Strings)
		}
	}
	return true
}

// eventLineSeeds are the fuzz corpus: lines the fast path must take
// (what a Client sends, reordered or spaced out, with the integer and
// float edges) and lines it must leave to encoding/json.
var eventLineSeeds = []struct {
	line string
	fast bool
}{
	{`{"seq":7,"type":"Stock","time":17,"attrs":{"price":99.5,"volume":12},"str":{"company":"co01","sector":"s3"}}`, true},
	{`{"type":"Stock","time":1}`, true},
	{`{"type":"T","time":-0,"attrs":{}}`, true},
	{` { "time" : -9223372036854775808 , "type" : "T" , "str" : { "k" : "v" } } `, true},
	{`{"type":"T","time":9223372036854775807,"seq":18446744073709551615}`, true},
	{`{"type":"T","time":1,"attrs":{"a":-0,"b":1e21,"c":1e-7,"d":0.1,"e":1E+2,"f":-1.5e-300}}`, true},
	{`{"type":"T","time":1,"attrs":{"a":1e-400,"b":123456789012345678901234567890}}`, true},
	{`{"type":"Ünï","time":1,"str":{"k":"日本語"}}`, true},
	{`{"type":"T","time":9223372036854775808}`, false},
	{`{"type":"T","seq":18446744073709551616}`, false},
	{`{"type":"T","seq":-1}`, false},
	{`{"type":"T","time":1,"attrs":{"a":1e999}}`, false},
	{"{\"type\":\"T\xff\",\"time\":1}", false},
	{`{"type":"T","time":1,"str":{"k":""}}`, false},
	{`{"type":"T","time":1,"str":{"k":"a\"b"}}`, false},
	{`{"type":"T","time":1,"str":{"k":"a\u0041"}}`, false},
	{`{"type":"T","time":1,"attrs":{"b":1,"a":2}}`, false},
	{`{"type":"T","time":1,"attrs":{"a":1,"a":2}}`, false},
	{`{"type":"T","time":1,"attrs":{"a":1},"str":{"a":"x"}}`, false},
	{`{"type":"T","type":"U","time":1}`, false},
	{`{"Type":"T","time":1}`, false},
	{`{"cmd":"flush"}`, false},
	{`{"cmd":"","type":"T","time":1}`, false},
	{`{"type":"T","time":1,"rg":[0],"rh":["ff"]}`, false},
	{`{"type":"T","time":1.0}`, false},
	{`{"type":"T","time":1e3}`, false},
	{`{"type":"T","time":01}`, false},
	{`{"type":"T","time":1,"attrs":{"a":01}}`, false},
	{`{"type":"T","time":1,"attrs":{"a":1.}}`, false},
	{`{"type":"T","time":1,"attrs":{"a":.5}}`, false},
	{`{"type":"T","time":1,"attrs":{"a":-}}`, false},
	{`{"type":"T","time":1,"attrs":{"a":null}}`, false},
	{`{"type":"T","time":1,"attrs":{"a":"1"}}`, false},
	{`{"type":"T","time":1,"attrs":{"":1}}`, false},
	{`{"type":"T","time":1,"attrs":null}`, false},
	{`{"type":"T","time":1,"attrs":{"a":{"b":1}}}`, false},
	{`{"type":"","time":1}`, false},
	{`{"time":1}`, false},
	{`{"type":"T","time":1}x`, false},
	{`{"type":"T","time":1}{}`, false},
	{`{"type":"T","time":1,}`, false},
	{`{"type":"T" "time":1}`, false},
	{`{"type":"T","time":1`, false},
	{`[]`, false},
	{`{}`, false},
	{`{`, false},
	{`"`, false},
	{``, false},
	{`null`, false},
}

// FuzzEventLine is the netstream frame fuzzer for the event line: on
// every input the fast parser declines or agrees with encoding/json.
func FuzzEventLine(f *testing.F) {
	for _, s := range eventLineSeeds {
		f.Add([]byte(s.line))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkEventLine(t, b) })
}

// TestEventLineFastPathTaken keeps the fuzz property from passing
// vacuously: each seed is parsed by the path it is listed under.
func TestEventLineFastPathTaken(t *testing.T) {
	for _, s := range eventLineSeeds {
		if got := checkEventLine(t, []byte(s.line)); got != s.fast {
			t.Errorf("%q: fast path taken = %v, want %v", s.line, got, s.fast)
		}
	}
}

// TestEventLineEncoderMatchesJSON: the hand-rolled encoder's bytes are
// json.Marshal's for random events, including the float formatting
// edges (-0, the 1e21 and 1e-6 exponent switches, e-07 trimming,
// subnormals), non-ASCII, invalid UTF-8, HTML metacharacters and control
// characters in every string position; NaN and ±Inf fail with
// encoding/json's own error and leave the buffer untouched. So
// wire_bytes_per_event cannot move and old peers interoperate.
func TestEventLineEncoderMatchesJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 99.5, 0.1, 1e21, 1e21 - 65536, 1e20, 999999999999999868928, 1e-6, 1e-7, 9.999999e-7,
		1.5e-10, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.123456789, 1 << 53, 3.0e100,
		1<<53 - 1, -(1<<53 - 1), -(1 << 53), 1<<53 + 2, 1 << 52, 1<<52 + 1, 1e15, 999999999999999, -1000, 1 << 62, -(1 << 63), 1 << 63, 0.5, 4503599627370495.5}
	strs := []string{"", "co01", "Stock", "a b", "日本語", "Ünï", "a<b>c&d", "q\"uote", "back\\slash", "tab\tnl\ncr\r", "\b\f\x00\x1f\x7f",
		"\u2028\u2029", "bad\xffutf8", "\xc3", "e\u0301"}
	rng := rand.New(rand.NewSource(15))
	var enc eventEncoder
	buf := []byte("prefix")
	for i := 0; i < 20000; i++ {
		we := WireEvent{Type: strs[rng.Intn(len(strs))], Time: rng.Int63() - rng.Int63()}
		if rng.Intn(3) > 0 {
			we.Seq = rng.Uint64() >> uint(rng.Intn(64))
		}
		if n := rng.Intn(5); n > 0 || rng.Intn(2) == 0 {
			we.Attrs = map[string]float64{}
			for k := 0; k < n; k++ {
				v := floats[rng.Intn(len(floats))]
				if rng.Intn(2) == 0 {
					v = math.Float64frombits(rng.Uint64())
					if v-v != 0 {
						v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
					}
				}
				we.Attrs[strs[rng.Intn(len(strs))]] = v
			}
		}
		if n := rng.Intn(4); n > 0 || rng.Intn(2) == 0 {
			we.Str = map[string]string{}
			for k := 0; k < n; k++ {
				we.Str[strs[rng.Intn(len(strs))]] = strs[rng.Intn(len(strs))]
			}
		}
		want, err := json.Marshal(we)
		if err != nil {
			t.Fatal(err)
		}
		got, err := enc.appendLine(buf[:6], we.Seq, we.Type, we.Time, we.Attrs, we.Str)
		if err != nil || string(got) != "prefix"+string(want)+"\n" {
			t.Fatalf("event %+v:\n got %q, %v\nwant %q", we, got[6:], err, want)
		}
		buf = got
		checkEventLine(t, got[6:]) // and what the client sends, the server reads
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		attrs := map[string]float64{"a": 1, "b": bad}
		_, want := json.Marshal(WireEvent{Type: "T", Attrs: attrs})
		got, err := enc.appendLine(buf[:6], 1, "T", 1, attrs, nil)
		if err == nil || want == nil || err.Error() != want.Error() || string(got) != "prefix" {
			t.Fatalf("%v: appendLine = %q, %v; json.Marshal fails with %v", bad, got, err, want)
		}
	}
}

// TestEventLineGolden pins the bytes of the line the benchmark's
// net_durable producer sends, so its size (netstream.wire_bytes_per_event)
// is a reviewed constant rather than a by-product.
func TestEventLineGolden(t *testing.T) {
	var enc eventEncoder
	got, err := enc.appendLine(nil, 30000, "Stock", 1234, map[string]float64{"volume": 310, "price": 101.25}, map[string]string{"sector": "s3", "company": "co042"})
	const want = `{"seq":30000,"type":"Stock","time":1234,"attrs":{"price":101.25,"volume":310},"str":{"company":"co042","sector":"s3"}}` + "\n"
	if err != nil || string(got) != want {
		t.Fatalf("got %q, %v\nwant %q", got, err, want)
	}
}
