package redoop

import (
	"bytes"
	"fmt"
	"log/slog"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"redoop/internal/window"
)

func sum(key []byte, values [][]byte, emit Emitter) {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	emit.Emit(key, []byte(strconv.Itoa(total)))
}

func countMap(_ int64, payload []byte, emit Emitter) {
	emit.Emit(append([]byte(nil), payload...), []byte("1"))
}

func testQuery(name string, adaptive bool) *Query {
	return &Query{
		Name:     name,
		Sources:  []Source{{Name: "S1", Window: TimeWindow(30*time.Second, 10*time.Second)}},
		Maps:     []MapFunc{countMap},
		Reduce:   sum,
		Combine:  sum,
		Merge:    sum,
		Reducers: 4,
		Adaptive: adaptive,
	}
}

func testBatch(seed int64, slideIdx, n int) []Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	base := int64(slideIdx) * int64(10*time.Second)
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Ts:   base + rng.Int63n(int64(10*time.Second)),
			Data: []byte(fmt.Sprintf("w%d", rng.Intn(8))),
		}
	}
	return out
}

func smallCluster() ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.Workers = 4
	cfg.BlockSize = 32 << 10
	return cfg
}

func TestSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Register(testQuery("q", false))
	if err != nil {
		t.Fatal(err)
	}
	if h.NextRecurrence() != 0 {
		t.Error("fresh handle should start at recurrence 0")
	}

	fed := 0
	for r := 0; r < 4; r++ {
		for ; fed < 3+r; fed++ {
			if err := h.Ingest(0, testBatch(5, fed, 500)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := h.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		if res.Recurrence != r {
			t.Errorf("recurrence = %d, want %d", res.Recurrence, r)
		}
		if len(res.Output) == 0 {
			t.Errorf("window %d produced no output", r)
		}
		if res.Stats.Response <= 0 {
			t.Error("response time should be positive")
		}
		if r == 0 && res.NewPanes != 3 {
			t.Errorf("window 0 should process 3 panes, got %d", res.NewPanes)
		}
		if r > 0 && res.ReusedPanes != 2 {
			t.Errorf("window %d should reuse 2 panes, got %d", r, res.ReusedPanes)
		}
		// Verify counts: 500 records per slide, 3 slides per window.
		total := 0
		for _, p := range res.Output {
			n, err := strconv.Atoi(string(p.Value))
			if err != nil {
				t.Fatalf("bad count %q", p.Value)
			}
			total += n
		}
		if total != 1500 {
			t.Errorf("window %d counted %d records, want 1500", r, total)
		}
	}
}

func TestOutputPathsAndReadOutput(t *testing.T) {
	sys, _ := NewSystem(smallCluster())
	h, _ := sys.Register(testQuery("q", false))
	for s := 0; s < 3; s++ {
		h.Ingest(0, testBatch(9, s, 200))
	}
	res, err := h.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadOutput(0)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(got)
	want := append([]Pair(nil), res.Output...)
	SortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("ReadOutput returned %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	if h.OutputPath(0) == h.OutputPath(1) {
		t.Error("output paths must be unique per recurrence (§5)")
	}
	paths := h.InputPaths(0)
	if len(paths) == 0 {
		t.Error("InputPaths should list the window's pane files")
	}
}

func TestRedoopMatchesBaselineViaPublicAPI(t *testing.T) {
	sysR, _ := NewSystem(smallCluster())
	sysB, _ := NewSystem(smallCluster())
	h, err := sysR.Register(testQuery("q", false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sysB.RegisterBaseline(testQuery("q", false))
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for r := 0; r < 4; r++ {
		for ; fed < 3+r; fed++ {
			batch := testBatch(31, fed, 400)
			if err := h.Ingest(0, batch); err != nil {
				t.Fatal(err)
			}
			if err := b.Ingest(0, batch); err != nil {
				t.Fatal(err)
			}
		}
		rr, err := h.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		br, err := b.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		SortPairs(rr.Output)
		SortPairs(br.Output)
		if len(rr.Output) != len(br.Output) {
			t.Fatalf("window %d: %d vs %d pairs", r, len(rr.Output), len(br.Output))
		}
		for i := range rr.Output {
			if !bytes.Equal(rr.Output[i].Key, br.Output[i].Key) ||
				!bytes.Equal(rr.Output[i].Value, br.Output[i].Value) {
				t.Fatalf("window %d: outputs disagree at %d", r, i)
			}
		}
	}
}

func TestFailNodeRecovery(t *testing.T) {
	sys, _ := NewSystem(smallCluster())
	h, _ := sys.Register(testQuery("q", false))
	fed := 0
	for r := 0; r < 4; r++ {
		for ; fed < 3+r; fed++ {
			h.Ingest(0, testBatch(17, fed, 300))
		}
		if r == 2 {
			sys.FailNode(1)
		}
		res, err := h.RunNext()
		if err != nil {
			t.Fatalf("window %d after node failure: %v", r, err)
		}
		total := 0
		for _, p := range res.Output {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
		if total != 900 {
			t.Errorf("window %d counted %d, want 900", r, total)
		}
	}
}

func TestDropCachesRecovery(t *testing.T) {
	sys, _ := NewSystem(smallCluster())
	h, _ := sys.Register(testQuery("q", false))
	fed := 0
	sawRecovery := false
	for r := 0; r < 4; r++ {
		for ; fed < 3+r; fed++ {
			h.Ingest(0, testBatch(23, fed, 300))
		}
		if r > 0 {
			if n := sys.DropCaches(r % 4); n == 0 && r == 1 {
				t.Error("expected caches to drop on node 1")
			}
		}
		res, err := h.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheRecoveries > 0 {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Error("cache drops should have triggered recoveries")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewSystem(ClusterConfig{}); err == nil {
		t.Error("empty cluster config should fail")
	}
	sys, _ := NewSystem(smallCluster())
	if _, err := sys.Register(nil); err == nil {
		t.Error("nil query should fail")
	}
	q := testQuery("bad", false)
	q.Reducers = 0
	if _, err := sys.Register(q); err == nil {
		t.Error("zero reducers should fail")
	}
	if _, err := sys.RegisterBaseline(nil); err == nil {
		t.Error("nil baseline query should fail")
	}
	h, _ := sys.Register(testQuery("ok", false))
	if err := h.Ingest(3, nil); err == nil {
		t.Error("bad source index should fail")
	}
}

// firstByte partitions by a key's first byte: a Partitioner of its own,
// so its symbol names it.
func firstByte(key []byte, n int) int {
	if len(key) == 0 {
		return 0
	}
	return int(key[0]) % n
}

// TestToCoreQueryKeepsUserFunctions: the engine runs the user's own
// functions, not wrappers, so a query's plan fingerprint names them.
func TestToCoreQueryKeepsUserFunctions(t *testing.T) {
	q := testQuery("direct", false)
	q.Partition = firstByte
	cq, err := toCoreQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pc := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	for name, fns := range map[string][2]any{
		"map":       {q.Maps[0], cq.Maps[0]},
		"reduce":    {q.Reduce, cq.Reduce},
		"combine":   {q.Combine, cq.Combine},
		"merge":     {q.Merge, cq.Merge},
		"partition": {q.Partition, cq.Partition},
	} {
		if pc(fns[0]) != pc(fns[1]) {
			t.Errorf("%s: the core query runs %s, not %s", name,
				runtime.FuncForPC(pc(fns[1])).Name(), runtime.FuncForPC(pc(fns[0])).Name())
		}
	}
	q.Combine, q.Partition = nil, nil
	if cq, _ := toCoreQuery(q); cq.Combine != nil || cq.Partition != nil {
		t.Error("an absent combiner or partitioner must stay absent")
	}
}

// TestCollectorCopies: a Collector keeps what was emitted, not the
// caller's buffer, and what Pairs returned does not move with later emits.
func TestCollectorCopies(t *testing.T) {
	var c Collector
	if got := c.Pairs(); len(got) != 0 {
		t.Fatalf("empty collector: %q", got)
	}
	buf := []byte("a1")
	c.Emitter().Emit(buf[:1], buf[1:])
	copy(buf, "b2")
	c.Emitter().Emit(buf[:1], buf[1:])
	first := c.Pairs()
	copy(buf, "c3")
	c.Emitter().Emit(buf[:1], buf[1:])
	want := []Pair{{[]byte("a"), []byte("1")}, {[]byte("b"), []byte("2")}}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("Pairs = %q, want %q", first, want)
	}
	if got := c.Pairs(); len(got) != 3 || string(got[2].Key) != "c" || string(got[2].Value) != "3" {
		t.Fatalf("after a third emit: %q", got)
	}
}

func TestWindowSpecAccessors(t *testing.T) {
	w := TimeWindow(60*time.Minute, 20*time.Minute)
	if w.Pane() != int64(20*time.Minute) {
		t.Errorf("Pane = %d", w.Pane())
	}
	if got := w.Overlap(); got < 0.66 || got > 0.67 {
		t.Errorf("Overlap = %v", got)
	}
	c := CountWindow(30, 20)
	if c.Pane() != 10 {
		t.Errorf("count pane = %d", c.Pane())
	}
}

func TestForecastAndProactive(t *testing.T) {
	sys, _ := NewSystem(smallCluster())
	h, _ := sys.Register(testQuery("q", true))
	if h.Forecast() != 0 {
		t.Error("forecast should be zero before observations")
	}
	fed := 0
	for r := 0; r < 3; r++ {
		for ; fed < 3+r; fed++ {
			h.Ingest(0, testBatch(41, fed, 200))
		}
		if _, err := h.RunNext(); err != nil {
			t.Fatal(err)
		}
	}
	if h.Forecast() <= 0 {
		t.Error("forecast should be positive after 3 recurrences")
	}
	// Light load: the engine should not be proactive.
	if h.Proactive() {
		t.Error("light load should not trigger proactive mode")
	}
}

func TestCostModelRoundTrip(t *testing.T) {
	m := DefaultCostModel()
	if m.DiskReadBps <= 0 || m.TaskOverhead <= 0 {
		t.Error("default cost model should be populated")
	}
	io := m.toIOCost()
	back := fromIOCost(io)
	if back != m {
		t.Error("cost model conversion should round-trip")
	}
}

func joinTestQuery(name string) *Query {
	tag := func(prefix byte) MapFunc {
		return func(_ int64, payload []byte, emit Emitter) {
			i := bytes.IndexByte(payload, ':')
			if i < 0 {
				return
			}
			key := append([]byte(nil), payload[:i]...)
			val := append([]byte{prefix, '|'}, payload[i+1:]...)
			emit.Emit(key, val)
		}
	}
	return &Query{
		Name: name,
		Sources: []Source{
			{Name: "A", Window: TimeWindow(30*time.Second, 10*time.Second)},
			{Name: "B", Window: TimeWindow(30*time.Second, 10*time.Second)},
		},
		Maps: []MapFunc{tag('L'), tag('R')},
		Reduce: func(key []byte, values [][]byte, emit Emitter) {
			var ls, rs [][]byte
			for _, v := range values {
				if len(v) < 2 || v[1] != '|' {
					continue
				}
				if v[0] == 'L' {
					ls = append(ls, v[2:])
				} else {
					rs = append(rs, v[2:])
				}
			}
			for _, l := range ls {
				for _, r := range rs {
					out := append(append(append([]byte(nil), l...), ','), r...)
					emit.Emit(key, out)
				}
			}
		},
		Reducers: 2,
	}
}

func kvBatch(seed int64, slideIdx, n int) []Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	base := int64(slideIdx) * int64(10*time.Second)
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Ts:   base + rng.Int63n(int64(10*time.Second)),
			Data: []byte(fmt.Sprintf("k%02d:v%d.%d", rng.Intn(20), slideIdx, i)),
		}
	}
	return out
}

func TestJoinViaPublicAPI(t *testing.T) {
	sysR, _ := NewSystem(smallCluster())
	sysB, _ := NewSystem(smallCluster())
	h, err := sysR.Register(joinTestQuery("j"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sysB.RegisterBaseline(joinTestQuery("j"))
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for r := 0; r < 4; r++ {
		for ; fed < 3+r; fed++ {
			for src := 0; src < 2; src++ {
				batch := kvBatch(int64(src*100+7), fed, 60)
				if err := h.Ingest(src, batch); err != nil {
					t.Fatal(err)
				}
				if err := b.Ingest(src, batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		rr, err := h.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		br, err := b.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		SortPairs(rr.Output)
		SortPairs(br.Output)
		if len(rr.Output) != len(br.Output) {
			t.Fatalf("window %d: %d vs %d join outputs", r, len(rr.Output), len(br.Output))
		}
		for i := range rr.Output {
			if !bytes.Equal(rr.Output[i].Key, br.Output[i].Key) ||
				!bytes.Equal(rr.Output[i].Value, br.Output[i].Value) {
				t.Fatalf("window %d: join outputs disagree", r)
			}
		}
		if r > 0 && rr.ReusedPairs == 0 {
			t.Errorf("window %d should reuse pane pairs", r)
		}
	}
}

func TestCountWindowViaPublicAPI(t *testing.T) {
	sys, _ := NewSystem(smallCluster())
	q := testQuery("count", false)
	q.Sources[0].Window = CountWindow(300, 100)
	h, err := sys.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(slide int) []Record {
		out := make([]Record, 100)
		for i := range out {
			out[i] = Record{Ts: int64(slide*100 + i), Data: []byte(fmt.Sprintf("w%d", i%5))}
		}
		return out
	}
	fed := 0
	for r := 0; r < 3; r++ {
		for ; fed < 3+r; fed++ {
			if err := h.Ingest(0, mk(fed)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := h.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range res.Output {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
		if total != 300 {
			t.Errorf("window %d counted %d, want 300", r, total)
		}
	}
}

func TestJitteredSystemStillCorrect(t *testing.T) {
	cfg := smallCluster()
	cfg.Jitter = 0.4
	cfg.JitterSeed = 5
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Register(testQuery("q", false))
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for r := 0; r < 3; r++ {
		for ; fed < 3+r; fed++ {
			h.Ingest(0, testBatch(63, fed, 300))
		}
		res, err := h.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range res.Output {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
		if total != 900 {
			t.Errorf("jittered window %d counted %d, want 900", r, total)
		}
	}
}

func TestCacheReport(t *testing.T) {
	sys, _ := NewSystem(smallCluster())
	h, _ := sys.Register(testQuery("q", false))
	for s := 0; s < 3; s++ {
		h.Ingest(0, testBatch(71, s, 200))
	}
	if _, err := h.RunNext(); err != nil {
		t.Fatal(err)
	}
	report := sys.CacheReport()
	if len(report) == 0 {
		t.Fatal("a completed recurrence should leave caches registered")
	}
	var inputs, outputs int
	for _, e := range report {
		if e.Input {
			inputs++
		} else {
			outputs++
		}
	}
	if inputs == 0 || outputs == 0 {
		t.Errorf("expected both cache stages, got %d inputs / %d outputs", inputs, outputs)
	}
	if sys.CachedBytes() <= 0 {
		t.Error("cached bytes should be positive")
	}
}

func TestHeterogeneousWindowsViaPublicAPI(t *testing.T) {
	q := joinTestQuery("hj")
	// Source B keeps only the last 20s while A keeps 30s.
	q.Sources[1].Window = TimeWindow(20*time.Second, 10*time.Second)
	sys, _ := NewSystem(smallCluster())
	h, err := sys.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for r := 0; r < 3; r++ {
		for ; fed < 3+r; fed++ {
			for src := 0; src < 2; src++ {
				if err := h.Ingest(src, kvBatch(int64(src*50+3), fed, 40)); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := h.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Output) == 0 {
			t.Errorf("window %d empty", r)
		}
	}
}

// TestInputPathsHeterogeneousWindows: with A keeping 20 s and B 30 s
// on a 10 s slide, recurrence r reads A's last two panes and B's last
// three before the shared trigger, and InputPaths lists the files of
// each source's own frame window. Once r has run, the panes no later
// window needs are retired, which leaves A's newest pane and B's newest
// two.
func TestInputPathsHeterogeneousWindows(t *testing.T) {
	q := joinTestQuery("ip")
	q.Sources[0].Window = TimeWindow(20*time.Second, 10*time.Second)
	frames, err := window.NewFrames([]window.Spec{q.Sources[0].Window.spec, q.Sources[1].Window.spec})
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := NewSystem(smallCluster())
	h, err := sys.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for r := 0; r < 3; r++ {
		for ; fed < 3+r; fed++ {
			for src := 0; src < 2; src++ {
				if err := h.Ingest(src, kvBatch(int64(src*50+3), fed, 40)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := h.RunNext(); err != nil {
			t.Fatal(err)
		}
		var want []string
		for src, f := range frames {
			lo, hi := f.WindowRange(r)
			for p := lo; p <= hi; p++ {
				ins, _ := h.eng.PaneInputs(src, p)
				for _, in := range ins {
					want = append(want, in.Input.Path)
				}
			}
		}
		got := h.InputPaths(r)
		slices.Sort(got)
		slices.Sort(want)
		if len(want) != 3 || !slices.Equal(got, want) {
			t.Errorf("window %d: InputPaths = %v, want the 1 + 2 live pane files %v", r, got, want)
		}
	}
}

func TestLoggerAndHistory(t *testing.T) {
	var buf bytes.Buffer
	q := testQuery("q", false)
	q.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	sys, _ := NewSystem(smallCluster())
	h, err := sys.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	fed, dropped, recoveries := 0, 0, 0
	for r := 0; r < 3; r++ {
		for ; fed < 3+r; fed++ {
			h.Ingest(0, testBatch(81, fed, 200))
		}
		if r == 2 {
			// Node 1 loses the caches of the window's two reused panes;
			// the recurrence finds each lost and rebuilds it.
			dropped = sys.DropCaches(1)
		}
		res, err := h.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		recoveries += res.CacheRecoveries
	}
	out := buf.String()
	if !strings.Contains(out, "recurrence complete") {
		t.Errorf("log should record recurrences:\n%s", out)
	}
	if dropped == 0 || recoveries == 0 {
		t.Fatalf("dropped %d caches and recovered %d panes; the loss check is vacuous", dropped, recoveries)
	}
	warn := fmt.Sprintf(`level=WARN msg="caches lost and rebuilt" query=q recurrence=2 count=%d`, recoveries)
	if !strings.Contains(out, warn) {
		t.Errorf("log lacks %s:\n%s", warn, out)
	}
	rollback := `level=DEBUG msg="cache ready state rolled back"`
	if n := strings.Count(out, rollback); n != dropped {
		t.Errorf("%d rollback lines, want one per lost and rebuilt cache (%d):\n%s", n, dropped, out)
	}
	hist := h.History()
	if len(hist) != 2 { // cold first recurrence is not observed
		t.Fatalf("history has %d entries, want 2", len(hist))
	}
	if hist[0].Recurrence != 1 || hist[0].Exec <= 0 || hist[0].InputBytes <= 0 {
		t.Errorf("history entry 0 = %+v", hist[0])
	}
}

func TestSharedSourceViaPublicAPI(t *testing.T) {
	sys, _ := NewSystem(smallCluster())
	w := TimeWindow(30*time.Second, 10*time.Second)
	if err := sys.ShareSource("clicks", w, 0); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, win time.Duration) *Query {
		q := testQuery(name, false)
		q.Sources[0].Window = TimeWindow(win, 10*time.Second)
		q.Sources[0].CacheKey = "clicks"
		return q
	}
	h1, err := sys.Register(mk("hourly", 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sys.Register(mk("daily", 50*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Ingest(0, testBatch(1, 0, 10)); err == nil {
		t.Fatal("direct ingest into a shared source must fail")
	}
	for s := 0; s < 5; s++ {
		if err := sys.IngestShared("clicks", testBatch(91, s, 100)); err != nil {
			t.Fatal(err)
		}
	}
	count := func(out []Pair) int {
		total := 0
		for _, p := range out {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
		return total
	}
	r1, err := h1.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if count(r1.Output) != 300 {
		t.Errorf("30s window counted %d, want 300", count(r1.Output))
	}
	if count(r2.Output) != 500 {
		t.Errorf("50s window counted %d, want 500", count(r2.Output))
	}
	if err := sys.IngestShared("ghost", nil); err == nil {
		t.Error("unknown shared key should fail")
	}
}
