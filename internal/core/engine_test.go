package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"redoop/internal/baseline"
	"redoop/internal/cluster"
	"redoop/internal/core"
	"redoop/internal/dfs"
	"redoop/internal/iocost"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// newRig builds an isolated cluster+DFS+runtime for one system under
// test so Redoop and baseline timelines never interfere.
func newRig(workers int, seed int64) *mapreduce.Engine {
	// Unit tests run at kilobyte scale, so shrink the fixed per-task
	// overhead to keep timings data-dominated, as they are at the
	// paper's gigabyte scale.
	cost := iocost.Default()
	cost.TaskOverhead = 200 * time.Microsecond
	return newRigCost(workers, seed, cost)
}

// mustEngine is core.NewEngine for a configuration the test knows is valid.
func mustEngine(t testing.TB, cfg core.Config) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newRigCost(workers int, seed int64, cost iocost.Model) *mapreduce.Engine {
	// Two map and two reduce slots per worker with 32 KiB blocks keep
	// the slot count well below the window's block count, so map waves
	// scale with data volume as they do on a loaded production
	// cluster.
	cl := cluster.MustNew(cluster.Config{Workers: workers, MapSlots: 2, ReduceSlots: 2})
	d := dfs.MustNew(dfs.Config{
		BlockSize:   32 << 10,
		Replication: 2,
		Nodes:       nodeIDs(workers),
		Seed:        seed,
	})
	return mapreduce.MustNew(cl, d, cost)
}

func nodeIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sumReduce aggregates integer values; it doubles as the combiner and
// the finalization merge (sums are algebraic).
func sumReduce(key []byte, values [][]byte, emit mapreduce.Emitter) {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	emit.Emit(key, []byte(strconv.Itoa(total)))
}

// countQuery is a recurring word-count aggregation over one source.
func countQuery(name string, win, slide simtime.Duration, cacheKey string) *core.Query {
	return &core.Query{
		Name: name,
		Sources: []core.Source{{
			Name:             "S1",
			Spec:             window.NewTimeSpec(win, slide),
			CacheKey:         cacheKey,
			RateBytesPerUnit: 0,
		}},
		Maps: []mapreduce.MapFunc{func(_ int64, payload []byte, emit mapreduce.Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte("1"))
		}},
		Reduce:      sumReduce,
		Combine:     sumReduce,
		Merge:       sumReduce,
		NumReducers: 2,
	}
}

// joinQuery is a recurring equi-join of two sources; values are tagged
// with their side and the reduce emits the cross product per key.
func joinQuery(name string, win, slide simtime.Duration) *core.Query {
	tagMap := func(tag string) mapreduce.MapFunc {
		return func(_ int64, payload []byte, emit mapreduce.Emitter) {
			// Payload format "key:value".
			i := bytes.IndexByte(payload, ':')
			if i < 0 {
				return
			}
			k := append([]byte(nil), payload[:i]...)
			v := append([]byte(tag+"|"), payload[i+1:]...)
			emit.Emit(k, v)
		}
	}
	return &core.Query{
		Name: name,
		Sources: []core.Source{
			{Name: "S1", Spec: window.NewTimeSpec(win, slide)},
			{Name: "S2", Spec: window.NewTimeSpec(win, slide)},
		},
		Maps:   []mapreduce.MapFunc{tagMap("A"), tagMap("B")},
		Reduce: crossJoinReduce,
		// Merge nil: a window's join result is the union of its pane
		// pairs' results.
		NumReducers: 2,
	}
}

func crossJoinReduce(key []byte, values [][]byte, emit mapreduce.Emitter) {
	var as, bs [][]byte
	for _, v := range values {
		switch {
		case bytes.HasPrefix(v, []byte("A|")):
			as = append(as, v[2:])
		case bytes.HasPrefix(v, []byte("B|")):
			bs = append(bs, v[2:])
		}
	}
	for _, a := range as {
		for _, b := range bs {
			out := make([]byte, 0, len(a)+len(b)+1)
			out = append(out, a...)
			out = append(out, ',')
			out = append(out, b...)
			emit.Emit(key, out)
		}
	}
}

// genWords produces one slide's worth of word records for the given
// recurrence, deterministic per seed.
func genWords(seed int64, slide simtime.Duration, slideIdx, n int, vocab int) []records.Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	base := int64(slideIdx) * int64(slide)
	out := make([]records.Record, n)
	for i := range out {
		ts := base + rng.Int63n(int64(slide))
		w := fmt.Sprintf("w%02d", rng.Intn(vocab))
		out[i] = records.Record{Ts: ts, Data: []byte(w)}
	}
	return out
}

// genKV produces "key:value" records for join tests.
func genKV(seed int64, slide simtime.Duration, slideIdx, n, keys int) []records.Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	base := int64(slideIdx) * int64(slide)
	out := make([]records.Record, n)
	for i := range out {
		ts := base + rng.Int63n(int64(slide))
		payload := fmt.Sprintf("k%02d:v%d.%d", rng.Intn(keys), slideIdx, i)
		out[i] = records.Record{Ts: ts, Data: []byte(payload)}
	}
	return out
}

func sortedClone(ps []records.Pair) []records.Pair {
	out := append([]records.Pair(nil), ps...)
	mapreduce.SortPairs(out)
	return out
}

func pairsEqual(a, b []records.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func dumpPairs(ps []records.Pair, limit int) string {
	var b strings.Builder
	for i, p := range ps {
		if i >= limit {
			fmt.Fprintf(&b, "... (%d total)", len(ps))
			break
		}
		fmt.Fprintf(&b, "%s=%s ", p.Key, p.Value)
	}
	return b.String()
}

const (
	testWin   = 30 * simtime.Second
	testSlide = 10 * simtime.Second
)

// runBoth feeds identical batches to a Redoop engine and a baseline
// driver and executes `windows` recurrences on each, returning the
// results. ingest(slideIdx) produces the batch per source for the
// units covering that slide; slides are fed just before the window
// that first needs them closes.
func runBoth(t *testing.T, q *core.Query, qb *core.Query, windows int, adaptive bool,
	gen func(src, slideIdx int) []records.Record,
	between func(r int, eng *core.Engine)) ([]*core.RecurrenceResult, []*baseline.Result) {
	t.Helper()
	eng := mustEngine(t, core.Config{MR: newRig(4, 1), Query: q, Adaptive: adaptive})
	drv, err := baseline.NewDriver(newRig(4, 1), qb)
	if err != nil {
		t.Fatal(err)
	}

	spec := q.Spec()
	frames, err := q.Frames()
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	// feedThroughClose delivers every slide batch starting before the
	// given window-close bound (batches may straddle window edges; the
	// packer holds back records beyond the flush bound).
	feedThroughClose := func(close int64) {
		for ; int64(fed)*spec.Slide < close; fed++ {
			for src := range q.Sources {
				batch := gen(src, fed)
				if err := eng.Ingest(src, batch); err != nil {
					t.Fatal(err)
				}
				if err := drv.Ingest(src, batch); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var rres []*core.RecurrenceResult
	var bres []*baseline.Result
	for r := 0; r < windows; r++ {
		feedThroughClose(frames[0].WindowClose(r))
		if between != nil {
			between(r, eng)
		}
		rr, err := eng.RunNext()
		if err != nil {
			t.Fatalf("redoop recurrence %d: %v", r, err)
		}
		br, err := drv.RunNext()
		if err != nil {
			t.Fatalf("baseline recurrence %d: %v", r, err)
		}
		rres = append(rres, rr)
		bres = append(bres, br)
	}
	return rres, bres
}

func assertSameOutputs(t *testing.T, rres []*core.RecurrenceResult, bres []*baseline.Result) {
	t.Helper()
	for i := range rres {
		ro := sortedClone(rres[i].Output)
		bo := sortedClone(bres[i].Output)
		if !pairsEqual(ro, bo) {
			t.Errorf("window %d: redoop and baseline disagree\n redoop:   %s\n baseline: %s",
				i, dumpPairs(ro, 12), dumpPairs(bo, 12))
		}
		if len(ro) == 0 {
			t.Errorf("window %d produced no output", i)
		}
	}
}

func TestAggregationMatchesBaselineAcrossWindows(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	qb := countQuery("agg", testWin, testSlide, "")
	gen := func(_, s int) []records.Record { return genWords(100, testSlide, s, 400, 25) }
	rres, bres := runBoth(t, q, qb, 6, false, gen, nil)
	assertSameOutputs(t, rres, bres)

	// Window 0 processes every pane; later windows reuse all but one.
	if rres[0].NewPanes != 3 || rres[0].ReusedPanes != 0 {
		t.Errorf("window 0: new=%d reused=%d, want 3/0", rres[0].NewPanes, rres[0].ReusedPanes)
	}
	for i := 1; i < len(rres); i++ {
		if rres[i].NewPanes != 1 || rres[i].ReusedPanes != 2 {
			t.Errorf("window %d: new=%d reused=%d, want 1/2", i, rres[i].NewPanes, rres[i].ReusedPanes)
		}
	}
}

func TestAggregationRedoopFasterSteadyState(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	qb := countQuery("agg", testWin, testSlide, "")
	gen := func(_, s int) []records.Record { return genWords(7, testSlide, s, 30000, 40) }
	rres, bres := runBoth(t, q, qb, 6, false, gen, nil)
	assertSameOutputs(t, rres, bres)
	// Steady state (windows 2+): Redoop must beat the baseline.
	for i := 2; i < len(rres); i++ {
		if rres[i].ResponseTime >= bres[i].ResponseTime {
			t.Errorf("window %d: redoop %v not faster than baseline %v",
				i, rres[i].ResponseTime, bres[i].ResponseTime)
		}
	}
	// And it must re-read far fewer input bytes.
	var rRead, bRead int64
	for i := 1; i < len(rres); i++ {
		rRead += rres[i].Stats.BytesRead
		bRead += bres[i].Stats.BytesRead
	}
	if rRead*2 >= bRead {
		t.Errorf("redoop re-read too much: %d vs baseline %d", rRead, bRead)
	}
}

func TestJoinMatchesBaselineAcrossWindows(t *testing.T) {
	q := joinQuery("join", testWin, testSlide)
	qb := joinQuery("join", testWin, testSlide)
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*1000+11), testSlide, s, 60, 8)
	}
	rres, bres := runBoth(t, q, qb, 5, false, gen, nil)
	assertSameOutputs(t, rres, bres)

	// Pane pairs: window 0 computes all 9; afterwards only pairs
	// involving the new pane (9 - 4 reused = 5 new).
	if rres[0].NewPairs != 9 {
		t.Errorf("window 0 pairs = %d, want 9", rres[0].NewPairs)
	}
	for i := 1; i < len(rres); i++ {
		if rres[i].ReusedPairs != 4 || rres[i].NewPairs != 5 {
			t.Errorf("window %d: new=%d reused=%d pairs, want 5/4",
				i, rres[i].NewPairs, rres[i].ReusedPairs)
		}
	}
}

func TestJoinRedoopFasterSteadyState(t *testing.T) {
	q := joinQuery("join", testWin, testSlide)
	qb := joinQuery("join", testWin, testSlide)
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*1000+13), testSlide, s, 5000, 25000)
	}
	rres, bres := runBoth(t, q, qb, 5, false, gen, nil)
	assertSameOutputs(t, rres, bres)
	for i := 2; i < len(rres); i++ {
		if rres[i].ResponseTime >= bres[i].ResponseTime {
			t.Errorf("window %d: redoop %v not faster than baseline %v",
				i, rres[i].ResponseTime, bres[i].ResponseTime)
		}
	}
}

func TestAggregationSurvivesCacheLoss(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	qb := countQuery("agg", testWin, testSlide, "")
	gen := func(_, s int) []records.Record { return genWords(23, testSlide, s, 500, 20) }
	recoveries := 0
	between := func(r int, eng *core.Engine) {
		if r == 0 {
			return
		}
		// Drop all caches from one node at each window start, the
		// Figure 9 injection.
		node := (r - 1) % 4
		eng.MR().Cluster.DropLocal(node, "cache/")
	}
	rres, bres := runBoth(t, q, qb, 6, false, gen, between)
	assertSameOutputs(t, rres, bres)
	for _, rr := range rres {
		recoveries += rr.CacheRecoveries
	}
	if recoveries == 0 {
		t.Error("cache loss should have triggered recoveries")
	}
}

func TestJoinSurvivesCacheLoss(t *testing.T) {
	q := joinQuery("join", testWin, testSlide)
	qb := joinQuery("join", testWin, testSlide)
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*1000+29), testSlide, s, 50, 6)
	}
	between := func(r int, eng *core.Engine) {
		if r > 0 {
			eng.MR().Cluster.DropLocal(r%4, "cache/")
		}
	}
	rres, bres := runBoth(t, q, qb, 5, false, gen, between)
	assertSameOutputs(t, rres, bres)
}

func TestAggregationSurvivesNodeFailure(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	qb := countQuery("agg", testWin, testSlide, "")
	gen := func(_, s int) []records.Record { return genWords(31, testSlide, s, 400, 15) }
	between := func(r int, eng *core.Engine) {
		if r == 2 {
			// Kill a node outright: its DFS replicas re-replicate and
			// its caches are rebuilt elsewhere.
			eng.MR().DFS.FailNode(1)
			eng.MR().Cluster.FailNode(1)
		}
	}
	rres, bres := runBoth(t, q, qb, 5, false, gen, between)
	assertSameOutputs(t, rres, bres)
}

func TestAdaptiveEngineSubdividesUnderSpike(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	// Heavy data: every window takes longer than the slide, forcing
	// the forecast over the deadline.
	gen := func(_, s int) []records.Record { return genWords(41, testSlide, s, 2000, 40) }
	slow := iocost.Default()
	slow.DiskReadBps /= 20000
	slow.DiskWriteBps /= 20000
	slow.NetBps /= 20000
	slow.MapCPUBps /= 20000
	slow.ReduceCPUBps /= 20000
	slow.SortBps /= 20000
	slow.TaskOverhead = 10 * time.Millisecond
	eng := mustEngine(t, core.Config{MR: newRigCost(2, 3, slow), Query: q, Adaptive: true})
	spec := q.Spec()
	slidesPerWin := int(spec.PanesPerWindow() / spec.PanesPerSlide())
	fed := 0
	sawProactive := false
	for r := 0; r < 5; r++ {
		for ; fed < slidesPerWin+r; fed++ {
			if err := eng.Ingest(0, gen(0, fed)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		if res.Proactive {
			sawProactive = true
			if res.SubPanes < 2 {
				t.Errorf("proactive recurrence %d should use sub-panes, got %d", r, res.SubPanes)
			}
		}
	}
	if !sawProactive {
		t.Error("sustained overload should switch the engine to proactive mode")
	}
	if !eng.Proactive() {
		t.Error("engine should remain proactive under sustained overload")
	}
}

func TestProactiveOutputStillCorrect(t *testing.T) {
	// Force proactive mode and verify outputs still match the
	// baseline (early partial processing must not change results).
	q := countQuery("agg", testWin, testSlide, "")
	qb := countQuery("agg", testWin, testSlide, "")
	gen := func(_, s int) []records.Record { return genWords(47, testSlide, s, 600, 20) }
	between := func(r int, eng *core.Engine) {
		if err := eng.ForceProactive(2); err != nil {
			t.Fatal(err)
		}
	}
	rres, bres := runBoth(t, q, qb, 5, false, gen, between)
	assertSameOutputs(t, rres, bres)
}

func TestCrossQueryCacheSharing(t *testing.T) {
	mr := newRig(4, 5)
	ctrl := core.NewController()
	q1 := countQuery("agg1", testWin, testSlide, "clicks")
	q2 := countQuery("agg2", testWin, testSlide, "clicks")
	e1 := mustEngine(t, core.Config{MR: mr, Query: q1, Controller: ctrl})
	e2 := mustEngine(t, core.Config{MR: mr, Query: q2, Controller: ctrl})

	gen := func(s int) []records.Record { return genWords(53, testSlide, s, 300, 10) }
	for s := 0; s < 3; s++ {
		if err := e1.Ingest(0, gen(s)); err != nil {
			t.Fatal(err)
		}
		if err := e2.Ingest(0, gen(s)); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := e1.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(sortedClone(r1.Output), sortedClone(r2.Output)) {
		t.Error("identical shared-source queries should agree")
	}
	// The second engine found every pane's reduce-input cache already
	// present (group claims keep shared caches alive across sibling
	// queries' expiries), so it read nothing from DFS.
	if r2.Stats.BytesRead != 0 {
		t.Errorf("sharing engine read %d DFS bytes, want 0", r2.Stats.BytesRead)
	}
	if r1.Stats.BytesRead == 0 {
		t.Error("first engine should have read the panes")
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := core.NewEngine(core.Config{}); err == nil {
		t.Error("missing runtime should fail")
	}
	if _, err := core.NewEngine(core.Config{MR: newRig(2, 1)}); err == nil {
		t.Error("missing query should fail")
	}
	bad := countQuery("x", testWin, testSlide, "")
	bad.Merge = nil
	if _, err := core.NewEngine(core.Config{MR: newRig(2, 1), Query: bad}); err == nil {
		t.Error("single-source query without Merge should fail")
	}
}

func TestIngestValidation(t *testing.T) {
	eng := mustEngine(t, core.Config{MR: newRig(2, 1), Query: countQuery("agg", testWin, testSlide, "")})
	if err := eng.Ingest(5, nil); err == nil {
		t.Error("bad source index should fail")
	}
}

func TestRecurrenceMetadata(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	eng := mustEngine(t, core.Config{MR: newRig(2, 7), Query: q})
	for s := 0; s < 3; s++ {
		eng.Ingest(0, genWords(3, testSlide, s, 100, 5))
	}
	res, err := eng.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if res.Recurrence != 0 || res.WindowLo != 0 || res.WindowHi != 2 {
		t.Errorf("metadata wrong: %+v", res)
	}
	if res.TriggerAt != simtime.Time(testWin) {
		t.Errorf("trigger = %v, want %v", res.TriggerAt, simtime.Time(testWin))
	}
	if res.ResponseTime <= 0 || res.CompletedAt != res.TriggerAt.Add(res.ResponseTime) {
		t.Errorf("time accounting inconsistent: %+v", res)
	}
	if eng.NextRecurrence() != 1 {
		t.Error("engine should advance")
	}
}

// Property-style check across several seeds: outputs always match the
// baseline for both query shapes.
func TestEquivalenceAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("agg-seed%d", seed), func(t *testing.T) {
			q := countQuery("agg", testWin, testSlide, "")
			qb := countQuery("agg", testWin, testSlide, "")
			gen := func(_, s int) []records.Record {
				return genWords(200+seed*31, testSlide, s, 150+int(seed)*70, 12)
			}
			rres, bres := runBoth(t, q, qb, 4, false, gen, nil)
			assertSameOutputs(t, rres, bres)
		})
		t.Run(fmt.Sprintf("join-seed%d", seed), func(t *testing.T) {
			q := joinQuery("join", testWin, testSlide)
			qb := joinQuery("join", testWin, testSlide)
			gen := func(src, s int) []records.Record {
				return genKV(seed*77+int64(src*1000), testSlide, s, 40+int(seed)*25, 7)
			}
			rres, bres := runBoth(t, q, qb, 4, false, gen, nil)
			assertSameOutputs(t, rres, bres)
		})
	}
}
