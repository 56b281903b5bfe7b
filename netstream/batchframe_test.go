package netstream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/event"
)

// wireOf is the WireEvent whose json.Marshal a BatchFrame's encoding
// must equal: columns as maps, hashes as hex strings, and the route
// info in the compact form (GI, one RH a row) when every row has one
// pair and all pairs one group, as per-row lists otherwise.
func wireOf(seq uint64, f *BatchFrame) WireEvent {
	we := WireEvent{Cmd: "batch", Seq: seq, Type: f.Type, Times: f.Times}
	if len(f.Nums) > 0 {
		we.Cols = map[string][]float64{}
		for k, a := range f.Nums {
			we.Cols[a] = f.Cols[k]
		}
	}
	if len(f.Strs) > 0 {
		we.SCols = map[string][]string{}
		for k, a := range f.Strs {
			we.SCols[a] = f.SCols[k]
		}
	}
	lo, compact := 0, true
	for _, hi := range f.RowEnd {
		rg, rh := []int{}, []string{}
		for k := lo; k < hi; k++ {
			rg, rh = append(rg, f.RGs[k]), append(rh, strconv.FormatUint(f.RHs[k], 16))
		}
		compact = compact && len(rg) == 1 && rg[0] == f.RGs[0]
		we.RGs, we.RHs, lo = append(we.RGs, rg), append(we.RHs, rh), hi
	}
	if compact && len(f.RowEnd) > 0 {
		we.GI, we.RGs, we.RHs = f.RGs[0], nil, nil
		for _, h := range f.RHs {
			we.RH = append(we.RH, strconv.FormatUint(h, 16))
		}
	}
	return we
}

// checkBatchFrame is the parser's contract on one input: it either
// declines, or json.Unmarshal accepts the same bytes, sets no field a
// batch frame does not have, and the generic path's conversion passes
// its checks and yields the same frame — every time, value bit pattern,
// name, string, gi, hash and row boundary.
func checkBatchFrame(t *testing.T, b []byte) (fast bool) {
	t.Helper()
	var bl batchLine
	if !bl.parse(b) {
		return false
	}
	var we WireEvent
	if err := json.Unmarshal(b, &we); err != nil {
		t.Fatalf("fast parser accepted %q, encoding/json rejects it: %v", b, err)
	}
	if !reflect.DeepEqual(we, WireEvent{Cmd: "batch", Seq: we.Seq, Type: we.Type, Time: we.Time, Times: we.Times,
		Cols: we.Cols, SCols: we.SCols, GI: we.GI, RH: we.RH, RGs: we.RGs, RHs: we.RHs}) {
		t.Fatalf("fast parser accepted %q, which sets non-batch fields: %+v", b, we)
	}
	var slow batchLine
	slow.parse(b) // fromWire reuses a connection's buffers: it must reset what the parser filled
	if err := slow.fromWire(&we, true); err != nil {
		t.Fatalf("fast parser accepted %q, the generic path refuses it: %v", b, err)
	}
	spans := func(ss [][]byte) (out []string) {
		for _, s := range ss {
			out = append(out, string(s))
		}
		return out
	}
	bits := func(vs []float64) (out []uint64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	for _, c := range []struct {
		what       string
		fast, slow any
	}{
		{"seq", bl.seq, slow.seq}, {"type", string(bl.typ), string(slow.typ)},
		{"times", slices.Clone(bl.times), slices.Clone(slow.times)},
		{"numeric names", spans(bl.nums), spans(slow.nums)}, {"values", bits(bl.vals), bits(slow.vals)},
		{"string names", spans(bl.strs), spans(slow.strs)}, {"strings", spans(bl.svals), spans(slow.svals)},
		{"rowEnd", slices.Clone(bl.rowEnd), slices.Clone(slow.rowEnd)}, {"rgs", slices.Clone(bl.rgs), slices.Clone(slow.rgs)},
		{"rhs", slices.Clone(bl.rhs), slices.Clone(slow.rhs)},
	} {
		if fmt.Sprint(c.fast) != fmt.Sprint(c.slow) { // nil and empty are one
			t.Fatalf("%q: %s: fast parser %v, generic path %v", b, c.what, c.fast, c.slow)
		}
	}
	return true
}

// batchFrameSeeds are the fuzz corpus, each frame under the path it must
// take: what a coordinator or SendBatch sends (respaced, reordered
// within the rule, with the integer, float and hash edges) is parsed
// fast, the rest is left to encoding/json.
var batchFrameSeeds = []struct {
	line string
	fast bool
}{
	{`{"cmd":"batch","seq":7,"type":"Stock","time":0,"times":[17,18],"cols":{"price":[99.5,98],"volume":[12,13]},"scols":{"company":["co01","co02"]},"gi":2,"rh":["ff","0"]}`, true},
	{`{"cmd":"batch","seq":8,"type":"M","time":0,"times":[1,1,2],"cols":{"cpu":[0.5,1e21,-0]},"rgs":[[0],[0,1],[1]],"rhs":[["a"],["ffffffffffffffff","1"],["0"]]}`, true},
	{`{"cmd":"batch","type":"T","time":0}`, true}, // the empty frame
	{`{"cmd":"batch","type":"T","time":0,"times":[],"cols":{},"scols":{},"rh":[]}`, true},
	{`{"cmd":"batch","type":"T","time":0,"cols":{"a":[]},"rgs":[],"rhs":[]}`, true},
	{` { "type" : "T" , "cmd" : "batch" , "times" : [ -9223372036854775808 , 9223372036854775807 ] , "scols" : { "" : [ "" , "日本語" ] } , "seq" : 18446744073709551615 } `, true},
	{`{"cmd":"batch","type":"T","time":-5,"times":[1],"cols":{"a":[1e-400],"b":[123456789012345678901234567890]},"gi":-3,"rh":["0123456789abcdef"]}`, true},
	{`{"cmd":"batch","type":"T","times":[1],"scols":{"a":["x"]},"cols":{"a":[1]}}`, true}, // scols ahead of cols, a name in both
	{`{"cmd":"batch","type":"T","times":[1,2],"rgs":[[],[5]],"rhs":[[],["5"]]}`, true},
	{`{"cmd":"batch","type":"T","time":0,"cols":{"a":[1]},"times":[1]}`, false}, // columns before times
	{`{"cmd":"batch","type":"T","time":0,"rh":["a"],"times":[1]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"times":[1]}`, false}, // duplicate keys
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"a":[1],"a":[2]}}`, false},
	{`{"cmd":"batch","cmd":"batch","type":"T","time":0}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"b":[1],"a":[2]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1,2],"cols":{"a":[1]}}`, false}, // ragged columns
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"a":[1,2]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"scols":{"a":[]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1,2],"rh":["a"]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":["FF"]}`, false}, // upper-case hex
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":["00000000000000000"]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":["1ffffffffffffffff"]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":[""]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":["+f"]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":["0x1"]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":[15]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":["a"],"rgs":[[0]],"rhs":[["a"]]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rgs":[[0]]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rhs":[["a"]]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rhs":[["a"]],"rgs":[[0]]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rgs":[[0,1]],"rhs":[["a"]]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rgs":[[0]],"rhs":[["a"],["b"]]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1,2],"rgs":[[0]],"rhs":[["a"]]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rgs":[[9223372036854775808]],"rhs":[["a"]]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rgs":null,"rhs":null}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1.0]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1e3]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[9223372036854775808]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[null]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":null}`, false},
	{`{"cmd":"batch","type":"T","time":0.5}`, false},
	{`{"cmd":"batch","type":"T","time":0,"gi":1.5}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"a":[1e999]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"a":[null]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"a":["1"]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"a":[01]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"a":[1,]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":{"a":null}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"cols":null}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"scols":{"a":["q\"uote"]}}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"scols":{"a":["\u0041"]}}`, false},
	{"{\"cmd\":\"batch\",\"type\":\"T\",\"time\":0,\"times\":[1],\"scols\":{\"a\":[\"\xff\"]}}", false},
	{"{\"cmd\":\"batch\",\"type\":\"T\",\"time\":0,\"times\":[1],\"cols\":{\"a\xff\":[1]}}", false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"scols":{"a":[1]}}`, false},
	{`{"cmd":"batch","type":"","time":0}`, false},
	{`{"cmd":"batch","time":0}`, false},
	{`{"type":"T","time":0,"times":[1]}`, false},
	{`{"cmd":"barrier","seq":3,"time":40,"si":1,"hi":3}`, false},
	{`{"cmd":"batch","seq":-1,"type":"T","time":0}`, false},
	{`{"cmd":"batch","seq":1.0,"type":"T","time":0}`, false},
	{`{"Cmd":"batch","type":"T","time":0}`, false},
	{`{"cmd":"batch","type":"T","time":0,"Times":[1]}`, false},
	{`{"cmd":"batch","type":"T","time":0,"si":0}`, false},
	{`{"cmd":"batch","type":"T","time":0,"attrs":{}}`, false},
	{`{"cmd":"batch","type":"T","time":0}x`, false},
	{`{"cmd":"batch","type":"T","time":0,}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1}`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1]`, false},
	{`{"cmd":"batch","type":"T","time":0,"times":[1],"rh":["a]}`, false},
	{`{}`, false},
	{`[]`, false},
	{``, false},
}

// FuzzBatchFrame is the netstream frame fuzzer for the batch frame: on
// every input the fast parser declines or agrees with encoding/json and
// the generic path's checks.
func FuzzBatchFrame(f *testing.F) {
	for _, s := range batchFrameSeeds {
		f.Add([]byte(s.line))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkBatchFrame(t, b) })
}

// TestBatchFrameFastPathTaken keeps the fuzz property from passing
// vacuously, and the fast path from silently no longer engaging: each
// seed is parsed by the path it is listed under.
func TestBatchFrameFastPathTaken(t *testing.T) {
	for _, s := range batchFrameSeeds {
		if got := checkBatchFrame(t, []byte(s.line)); got != s.fast {
			t.Errorf("%q: fast path taken = %v, want %v", s.line, got, s.fast)
		}
	}
}

// TestBatchFrameEncoderMatchesJSON: the hand-rolled encoder's bytes are
// json.Marshal's of the equivalent WireEvent for random frames — 0, 1
// and many rows, 0 to 3 numeric and string columns, the float formatting
// edges, non-ASCII, HTML metacharacters, control bytes and invalid UTF-8
// in names and values, no routing, single-group and per-row routing with
// the hash edges — and the server's parser reads every frame it is sent
// fast unless a string needs an escape. NaN and ±Inf fail with
// encoding/json's own error, the ring untouched and no seq consumed. So
// frame_bytes_per_event cannot move and old peers interoperate.
func TestBatchFrameEncoderMatchesJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 99.5, 0.1, 1e21, 1e21 - 65536, 1e20, 1e-6, 1e-7, 9.999999e-7,
		1.5e-10, 5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64, 123456789.123456789, 1 << 53,
		1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, 1 << 52, 1e15, -1000, 1 << 62, -(1 << 63), 1 << 63, 4503599627370495.5}
	plain := []string{"", "co01", "Stock", "a b", "日本語", "Ünï", "e\u0301"}
	escaped := []string{"a<b>c&d", "q\"uote", "back\\slash", "tab\tnl\n", "\b\f\x00\x1f\x7f", "\u2028\u2029", "bad\xffutf8", "\xc3"}
	hashes := []uint64{0, 1, 0xff, 1<<64 - 1, 1 << 63, 0x0123456789abcdef}
	rng := rand.New(rand.NewSource(18))
	pick := func(needsEscape *bool) string {
		if rng.Intn(6) == 0 {
			*needsEscape = true
			return escaped[rng.Intn(len(escaped))]
		}
		return plain[rng.Intn(len(plain))]
	}
	names := func(n int, needsEscape *bool) []string {
		set := map[string]bool{}
		for len(set) < n {
			set[pick(needsEscape)] = true
		}
		var out []string
		for a := range set {
			out = append(out, a)
		}
		slices.Sort(out)
		return out
	}
	buf := []byte("prefix")
	for iter := 0; iter < 5000; iter++ {
		n, needsEscape := []int{0, 1, 1, 2, 7, 40}[rng.Intn(6)], false
		f := BatchFrame{Type: pick(&needsEscape), Nums: names(rng.Intn(4), &needsEscape), Strs: names(rng.Intn(4), &needsEscape)}
		if f.Type == "" {
			f.Type = "T"
		}
		for i := 0; i < n; i++ {
			f.Times = append(f.Times, rng.Int63()-rng.Int63())
		}
		for range f.Nums {
			col := []float64{}
			for i := 0; i < n; i++ {
				v := floats[rng.Intn(len(floats))]
				if rng.Intn(2) == 0 {
					if v = math.Float64frombits(rng.Uint64()); v-v != 0 {
						v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
					}
				}
				col = append(col, v)
			}
			f.Cols = append(f.Cols, col)
		}
		for range f.Strs {
			col := []string{}
			for i := 0; i < n; i++ {
				col = append(col, pick(&needsEscape))
			}
			f.SCols = append(f.SCols, col)
		}
		hash := func() uint64 {
			if rng.Intn(2) == 0 {
				return hashes[rng.Intn(len(hashes))]
			}
			return rng.Uint64() >> uint(rng.Intn(64))
		}
		switch gi := rng.Intn(3); rng.Intn(3) {
		case 1: // one pair a row, one group: the compact form
			for i := 0; i < n; i++ {
				f.RGs, f.RHs, f.RowEnd = append(f.RGs, gi), append(f.RHs, hash()), append(f.RowEnd, i+1)
			}
		case 2:
			for i := 0; i < n; i++ {
				for k := rng.Intn(4); k > 0; k-- {
					f.RGs, f.RHs = append(f.RGs, rng.Intn(5)), append(f.RHs, hash())
				}
				f.RowEnd = append(f.RowEnd, len(f.RGs))
			}
		}
		seq := rng.Uint64() >> uint(rng.Intn(65))
		if err := f.check(); err != nil {
			t.Fatalf("frame %+v: %v", f, err)
		}
		want, err := json.Marshal(wireOf(seq, &f))
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendBatchFrame(buf[:6], seq, &f)
		if err != nil || string(got) != "prefix"+string(want)+"\n" {
			t.Fatalf("frame %+v:\n got %q, %v\nwant %q", f, got[6:], err, want)
		}
		buf = got
		if fast := checkBatchFrame(t, got[6:len(got)-1]); fast == needsEscape {
			t.Fatalf("%q: fast path taken = %v, a string needs an escape = %v", got[6:], fast, needsEscape)
		}
	}

	c := resumableClient(8)
	if _, err := c.SendBatchFrame(&BatchFrame{Type: "T", Times: []int64{1}, Nums: []string{"a"}, Cols: [][]float64{{1}}}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := BatchFrame{Type: "T", Times: []int64{1, 2}, Nums: []string{"a", "b"}, Cols: [][]float64{{1, 2}, {3, bad}}}
		_, want := json.Marshal(wireOf(2, &f))
		n, err := c.SendBatchFrame(&f)
		if err == nil || want == nil || err.Error() != want.Error() || n != 0 || c.ring.Last() != 1 || c.ring.Len() != 1 {
			t.Fatalf("%v: SendBatchFrame = %d, %v with the ring at seq %d holding %d; json.Marshal fails with %v", bad, n, err, c.ring.Last(), c.ring.Len(), want)
		}
	}
}

// TestSendBatchBytes: SendBatch goes through the batch-frame encoder and
// still writes what json.Marshal writes for its arguments, nil columns
// and the empty frame included. The frame is queued, so the wire is read
// after Close, which writes it.
func TestSendBatchBytes(t *testing.T) {
	for _, we := range []WireEvent{
		{Type: "Stock", Times: []int64{1, 2}, Cols: map[string][]float64{"volume": {3, 4}, "price": {99.5, 1e-7}}, SCols: map[string][]string{"co": {"a<b", "c"}}},
		{Type: "T", Times: []int64{5}},
		{Type: "T", Cols: map[string][]float64{"a": nil, "b": {}}, SCols: map[string][]string{"s": nil}},
	} {
		var sent strings.Builder
		c := NewClient(recordConn{w: &sent})
		if err := c.SendBatch(we.Type, we.Times, we.Cols, we.SCols); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		we.Cmd = "batch"
		want, _ := json.Marshal(we)
		if sent.String() != string(want)+"\n" {
			t.Errorf("SendBatch wrote %q\n           want %q", sent.String(), want)
		}
	}
}

// recordConn is a net.Conn that keeps what is written to it.
type recordConn struct {
	net.Conn
	w *strings.Builder
}

func (c recordConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (recordConn) Close() error                  { return nil }

// TestSchemaCacheBounded: a client that never repeats a shape cannot
// grow the session without limit. Past event.MaxShapes a new shape's schema
// is built for the frame (or event line) at hand alone — counted — and
// the results are those of a runtime fed the same events.
func TestSchemaCacheBounded(t *testing.T) {
	stmt, err := greta.Compile("RETURN COUNT(*), SUM(S.a0) PATTERN Stock S+ WITHIN 2 SLIDE 2")
	if err != nil {
		t.Fatal(err)
	}
	ref := greta.NewRuntime()
	want, err := ref.Register(stmt)
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	feedRef := func(t int64, attr string, v float64) {
		id++
		if err := ref.Process(&greta.Event{ID: id, Type: "Stock", Time: t, Attrs: map[string]float64{attr: v}}); err != nil {
			panic(err)
		}
	}
	conn := discardConn{}
	w := bufio.NewWriter(conn)
	sess := (&Server{Statements: []*greta.Statement{stmt}}).newSession(conn, w, json.NewEncoder(w))
	var rec record
	const extra = 50
	for i := 0; i < event.MaxShapes+extra; i++ {
		line := fmt.Sprintf(`{"cmd":"batch","type":"Stock","time":0,"times":[%d,%d],"cols":{"a%d":[1,2]}}`, i, i, i)
		if rec.decode([]byte(line)); rec.kind != recBatch || sess.handle(conn, &rec) {
			t.Fatalf("frame %d not applied", i)
		}
		feedRef(int64(i), fmt.Sprintf("a%d", i), 1)
		feedRef(int64(i), fmt.Sprintf("a%d", i), 2)
		if i >= event.MaxShapes { // the event line binds through the same cache, under the same bound
			line = fmt.Sprintf(`{"type":"Stock","time":%d,"attrs":{"b%d":3}}`, i, i)
			if rec.decode([]byte(line)); rec.kind != recEvent {
				t.Fatalf("event line %d declined", i)
			}
			if sess.handle(conn, &rec) {
				t.Fatalf("event line %d not applied", i)
			}
			feedRef(int64(i), fmt.Sprintf("b%d", i), 3)
		}
	}
	if sess.shapes.Len() != event.MaxShapes || sess.shapes.Uncached() != 2*extra {
		t.Errorf("schema cache holds %d shapes (cap %d) with %d built uncached, want %d", sess.shapes.Len(), event.MaxShapes, sess.shapes.Uncached(), 2*extra)
	}
	if sess.processed != id || sess.dropped != 0 {
		t.Errorf("applied %d rows, dropped %d, sent %d", sess.processed, sess.dropped, id)
	}
	sess.mu.Lock()
	sess.finishLocked()
	sess.mu.Unlock()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	type row struct {
		wid    int64
		values string
	}
	var got, exp []row
	for r := range sess.handles["q0"].Results() {
		got = append(got, row{r.Wid, fmt.Sprint(r.Values)})
	}
	for r := range want.Results() {
		exp = append(exp, row{r.Wid, fmt.Sprint(r.Values)})
	}
	if len(got) == 0 || !slices.Equal(got, exp) {
		t.Errorf("session results (%d) differ from the reference runtime's (%d)", len(got), len(exp))
	}
}
