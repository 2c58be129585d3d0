package queries

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"

	"redoop/internal/colfmt"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
)

// reduced is what fn emits for one key group, collected as every emit
// collects: copied into a writer.
func reduced(fn mapreduce.ReduceFunc, key []byte, values [][]byte) []records.Pair {
	var w colfmt.PairWriter
	fn(key, values, mapreduce.EmitTo(&w))
	return written(&w)
}

// mapped is what fn emits for one record, collected likewise.
func mapped(fn mapreduce.MapFunc, payload []byte) []records.Pair {
	var w colfmt.PairWriter
	fn(0, payload, mapreduce.EmitTo(&w))
	return written(&w)
}

func written(w *colfmt.PairWriter) []records.Pair {
	_, run := w.Segment()
	return run.AppendTo(nil)
}

func TestSumCounts(t *testing.T) {
	out := reduced(SumCounts, []byte("k"), [][]byte{[]byte("3"), []byte("4"), []byte("10")})
	if len(out) != 1 || string(out[0].Value) != "17" {
		t.Errorf("SumCounts = %v", out)
	}
}

// sumCountsByParseInt is SumCounts as it was before it read digits from
// the bytes: the reference every value, well-formed or not, must match.
func sumCountsByParseInt(key []byte, values [][]byte, emit mapreduce.Emitter) {
	total := int64(0)
	for _, v := range values {
		n, _ := strconv.ParseInt(string(v), 10, 64)
		total += n
	}
	emit.Emit(key, []byte(strconv.FormatInt(total, 10)))
}

func TestSumCountsMatchesParseInt(t *testing.T) {
	cases := [][]string{
		{"0"}, {"1"}, {"007"}, {"9", "99", "999"}, {"1", "1", "1", "1"},
		{"-5"}, {"+5"}, {"-0"}, {"-5", "12"}, {"+", "-", ""},
		{"12a", "3"}, {"a12", "3"}, {" 1", "1 "}, {"1_000", "3"}, {"0x10", "3"}, {"१२", "3"}, {"1.5", "2"},
		{"999999999999999999"},                      // 18 digits: the longest the fast path takes
		{"1000000000000000000"},                     // 19 digits, fits
		{"9223372036854775807"},                     // MaxInt64
		{"9223372036854775808", "-3"},               // overflows: ParseInt clamps to MaxInt64
		{"-9223372036854775808"},                    // MinInt64
		{"-9223372036854775809", "3"},               // clamps to MinInt64
		{"99999999999999999999999"},                 // far past the range
		{"9223372036854775807", "1"},                // the sum wraps, as it did
		{"000000000000000000000000000000000000012"}, // long, small
		{},
	}
	for _, c := range cases {
		values := make([][]byte, len(c))
		for i, v := range c {
			values[i] = []byte(v)
		}
		got, want := reduced(SumCounts, []byte("k"), values), reduced(sumCountsByParseInt, []byte("k"), values)
		if len(got) != 1 || string(got[0].Key) != "k" || string(got[0].Value) != string(want[0].Value) {
			t.Errorf("SumCounts(%q) = %v, ParseInt gives %q", c, got, want[0].Value)
		}
	}
	if parseCount(nil) != 0 {
		t.Error("a nil value counts as zero")
	}
}

func TestSumCountsIsAlgebraic(t *testing.T) {
	// Summing partials must equal summing the whole — the contract the
	// pane/merge decomposition relies on.
	f := func(vals []uint16) bool {
		all := make([][]byte, len(vals))
		total := 0
		for i, v := range vals {
			all[i] = []byte(fmt.Sprintf("%d", v))
			total += int(v)
		}
		whole := reduced(SumCounts, []byte("k"), all)
		// Split in half and merge the partials.
		mid := len(all) / 2
		p1, p2 := reduced(SumCounts, []byte("k"), all[:mid]), reduced(SumCounts, []byte("k"), all[mid:])
		var partials [][]byte
		for _, p := range append(p1, p2...) {
			partials = append(partials, p.Value)
		}
		merged := reduced(SumCounts, []byte("k"), partials)
		if len(vals) == 0 {
			return true
		}
		return string(whole[0].Value) == fmt.Sprintf("%d", total) &&
			string(merged[0].Value) == string(whole[0].Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWCCAggregationMapExtractsObject(t *testing.T) {
	q := WCCAggregation("q", simtime.Hour, 10*simtime.Minute, 4)
	if err := q.Validate(); err != nil {
		t.Fatalf("query invalid: %v", err)
	}
	out := mapped(q.Maps[0], []byte("c12,obj34,512,GET,200,IMAGE,srv1"))
	if len(out) != 1 || string(out[0].Key) != "obj34" || string(out[0].Value) != "1" {
		t.Errorf("map output = %v", out)
	}
	// Malformed lines are skipped.
	out = mapped(q.Maps[0], []byte("garbage-no-commas"))
	if len(out) != 0 {
		t.Errorf("malformed line should emit nothing, got %v", out)
	}
}

func TestFFGJoinTagging(t *testing.T) {
	q := FFGJoin("q", simtime.Hour, 10*simtime.Minute, 4)
	if err := q.Validate(); err != nil {
		t.Fatalf("query invalid: %v", err)
	}
	out := append(mapped(q.Maps[0], []byte("s042,1.0,2.0,3.0,4.0,5.0")), mapped(q.Maps[1], []byte("s042,shot,55"))...)
	if len(out) != 2 {
		t.Fatalf("got %d tagged pairs", len(out))
	}
	if string(out[0].Key) != "s042" || out[0].Value[0] != 'R' {
		t.Errorf("reading tag wrong: %s=%s", out[0].Key, out[0].Value)
	}
	if string(out[1].Key) != "s042" || out[1].Value[0] != 'E' {
		t.Errorf("event tag wrong: %s=%s", out[1].Key, out[1].Value)
	}
}

func TestJoinReduceCrossProduct(t *testing.T) {
	out := reduced(JoinReduce, []byte("s1"), [][]byte{
		[]byte("R|r1"), []byte("R|r2"),
		[]byte("E|e1"), []byte("E|e2"), []byte("E|e3"),
		[]byte("bogus"),
	})
	if len(out) != 6 {
		t.Fatalf("cross product of 2x3 should be 6, got %d", len(out))
	}
	if string(out[0].Value) != "r1;e1" {
		t.Errorf("first join output = %s", out[0].Value)
	}
}

func TestJoinReduceNoMatch(t *testing.T) {
	out := reduced(JoinReduce, []byte("s1"), [][]byte{[]byte("R|r1")})
	if len(out) != 0 {
		t.Errorf("one-sided key should join to nothing, got %v", out)
	}
}

// joinReduceNestedLoops is JoinReduce as it was before it counted its
// sides first — one make per output pair — kept as the reference.
func joinReduceNestedLoops(key []byte, values [][]byte, emit mapreduce.Emitter) {
	var rs, es [][]byte
	for _, v := range values {
		if len(v) < 2 || v[1] != '|' {
			continue
		}
		switch v[0] {
		case 'R':
			rs = append(rs, v[2:])
		case 'E':
			es = append(es, v[2:])
		}
	}
	for _, r := range rs {
		for _, e := range es {
			out := make([]byte, 0, len(r)+len(e)+1)
			out = append(out, r...)
			out = append(out, ';')
			out = append(out, e...)
			emit.Emit(key, out)
		}
	}
}

// joinGroup builds nr R-values and ne E-values of varying length,
// interleaved, with the values JoinReduce must skip mixed in.
func joinGroup(nr, ne int, noise bool) [][]byte {
	var vs [][]byte
	for i := 0; i < nr || i < ne; i++ {
		if i < nr {
			vs = append(vs, []byte(fmt.Sprintf("R|s%d,%0*d", i, i%7, i)))
		}
		if noise && i%3 == 0 {
			vs = append(vs, nil, []byte("R"), []byte("E"), []byte("|"), []byte("X|tagged"), []byte("untagged"), []byte("RE|"))
		}
		if i < ne {
			vs = append(vs, []byte(fmt.Sprintf("E|%0*d;ev", i%5, i)))
		}
	}
	return vs
}

func TestJoinReduceMatchesNestedLoops(t *testing.T) {
	groups := map[string][][]byte{
		"empty":           nil,
		"R only":          joinGroup(4, 0, false),
		"E only":          joinGroup(0, 4, false),
		"untagged":        {[]byte("untagged"), []byte("x"), nil, []byte("X|y")},
		"one byte":        {[]byte("R"), []byte("E"), []byte("|")},
		"empty payloads":  {[]byte("R|"), []byte("E|"), []byte("R|"), []byte("E|e")},
		"skipped between": {[]byte("E|e1"), []byte("bogus"), []byte("R|r1"), []byte("E"), []byte("R|r2")},
	}
	for _, dim := range [][2]int{{1, 1}, {1, 15}, {40, 1}, {2, 3}, {7, 7}, {40, 15}} {
		groups[fmt.Sprintf("%dx%d", dim[0], dim[1])] = joinGroup(dim[0], dim[1], false)
		groups[fmt.Sprintf("%dx%d noisy", dim[0], dim[1])] = joinGroup(dim[0], dim[1], true)
	}
	key := []byte("sensor")
	for name, values := range groups {
		got, want := reduced(JoinReduce, key, values), reduced(joinReduceNestedLoops, key, values)
		if len(got) != len(want) {
			t.Errorf("%s: %d pairs, reference %d", name, len(got), len(want))
			continue
		}
		for i := range got {
			if string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) {
				t.Errorf("%s: pair %d = %s=%q, reference %s=%q", name, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				break
			}
		}
	}
}

// TestJoinReduceAllocatesOnlyPastItsStack pins what the copying emit
// buys: a key group allocates nothing however many pairs it yields —
// every output is written in turn into one buffer on the stack — but the
// sides' views when they hold over 32 values, and the buffer when an
// "r;e" is over 256 bytes.
func TestJoinReduceAllocatesOnlyPastItsStack(t *testing.T) {
	key := []byte("k")
	long := append([]byte("R|"), bytes.Repeat([]byte("r"), 300)...)
	for _, c := range []struct {
		name   string
		values [][]byte
		pairs  int
		want   float64
	}{
		{"1x1", joinGroup(1, 1, true), 1, 0},
		{"20x12", joinGroup(20, 12, true), 240, 0},
		{"30x8", joinGroup(30, 8, true), 240, 1},
		{"300x80", joinGroup(300, 80, true), 24000, 1},
		{"30x0", joinGroup(30, 0, true), 0, 0},
		{"0x8", joinGroup(0, 8, true), 0, 0},
		{"long r", [][]byte{long, []byte("E|e")}, 1, 1},
	} {
		var w colfmt.PairWriter
		emit := mapreduce.EmitTo(&w)
		allocs := testing.AllocsPerRun(10, func() { // warmed up once, so the writer has room
			w.Reset()
			JoinReduce(key, c.values, emit)
		})
		if allocs != c.want {
			t.Errorf("%s group: %v allocations, want %v", c.name, allocs, c.want)
		}
		if n := len(written(&w)); n != c.pairs {
			t.Errorf("%s group emitted %d pairs, want %d", c.name, n, c.pairs)
		}
	}
}

// TestUserFunctionsDoNotAllocate: through a warmed writer, the paper's
// map and reduce functions build what they emit on the stack — a call to
// Emit is static, so the compiler sees it keeps nothing.
func TestUserFunctionsDoNotAllocate(t *testing.T) {
	var w colfmt.PairWriter
	emit := mapreduce.EmitTo(&w)
	key, counts := []byte("obj34"), [][]byte{[]byte("3"), []byte("4"), []byte("1000000")}
	join := joinGroup(20, 12, false)
	reading, event := []byte("s042,1.0,2.0,3.0,4.0,5.0"), []byte("s042,shot,55")
	logLine := []byte("c12,obj34,512,GET,200,IMAGE,srv1")
	for name, fn := range map[string]func(){
		"JoinReduce":     func() { JoinReduce(key, join, emit) },
		"SumCounts":      func() { SumCounts(key, counts, emit) },
		"WCCMap":         func() { WCCMap(0, logLine, emit) },
		"FFGTagReadings": func() { FFGTagReadings(0, reading, emit) },
		"FFGTagEvents":   func() { FFGTagEvents(0, event, emit) },
	} {
		if allocs := testing.AllocsPerRun(20, func() { w.Reset(); fn() }); allocs != 0 {
			t.Errorf("%s allocates %v times per call", name, allocs)
		}
		if len(written(&w)) == 0 {
			t.Errorf("%s emitted nothing", name)
		}
	}
}

func TestRankTopK(t *testing.T) {
	out := []records.Pair{
		{Key: []byte("b"), Value: []byte("5")},
		{Key: []byte("a"), Value: []byte("9")},
		{Key: []byte("c"), Value: []byte("5")},
		{Key: []byte("bad"), Value: []byte("xx")}, // skipped
	}
	ranked := RankTopK(out, 2)
	if len(ranked) != 2 {
		t.Fatalf("got %d ranked", len(ranked))
	}
	if ranked[0].Key != "a" || ranked[0].Count != 9 {
		t.Errorf("rank 1 = %+v", ranked[0])
	}
	if ranked[1].Key != "b" { // tie with c broken by key
		t.Errorf("rank 2 = %+v", ranked[1])
	}
	if got := RankTopK(out, 0); len(got) != 3 {
		t.Errorf("k<=0 should return the full ranking, got %d", len(got))
	}
}
