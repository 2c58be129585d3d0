package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
func newRig(t testing.TB, workers int, seed int64) *mapreduce.Engine {
	// Unit tests run at kilobyte scale, so shrink the fixed per-task
	// overhead to keep timings data-dominated, as they are at the
	// paper's gigabyte scale.
	cost := iocost.Default()
	cost.TaskOverhead = 200 * time.Microsecond
	return newRigCost(t, workers, seed, cost)
}

func newRigCost(t testing.TB, workers int, seed int64, cost iocost.Model) *mapreduce.Engine {
	t.Helper()
	// Two map and two reduce slots per worker with 32 KiB blocks keep
	// the slot count well below the window's block count, so map waves
	// scale with data volume as they do on a loaded production
	// cluster.
	cl, err := cluster.New(cluster.Config{Workers: workers, MapSlots: 2, ReduceSlots: 2})
	check(t, err)
	d, err := dfs.New(dfs.Config{BlockSize: 32 << 10, Replication: 2, Nodes: nodeIDs(workers), Seed: seed})
	check(t, err)
	mr, err := mapreduce.New(cl, d, cost)
	check(t, err)
	return mr
}

func nodeIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// joinQuery is a recurring equi-join of two sources; values are tagged
// with their side and the reduce emits the cross product per key.
func joinQuery(name string, win, slide simtime.Duration) *core.Query {
	tagMap := func(tag string) mapreduce.MapFunc {
		return func(_ int64, payload []byte, emit mapreduce.Emitter) {
			if i := bytes.IndexByte(payload, ':'); i >= 0 { // payload format "key:value"
				emit.Emit(append([]byte(nil), payload[:i]...), append([]byte(tag+"|"), payload[i+1:]...))
			}
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
			emit.Emit(key, append(append(append(make([]byte, 0, len(a)+len(b)+1), a...), ','), b...))
		}
	}
}

// genKV produces "key:value" records for join tests.
func genKV(seed int64, slide simtime.Duration, slideIdx, n, keys int) []records.Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	out := make([]records.Record, n)
	for i := range out {
		ts := int64(slideIdx)*int64(slide) + rng.Int63n(int64(slide))
		out[i] = records.Record{Ts: ts, Data: []byte(fmt.Sprintf("k%02d:v%d.%d", rng.Intn(keys), slideIdx, i))}
	}
	return out
}

func sortedClone(ps []records.Pair) []records.Pair {
	out := append([]records.Pair(nil), ps...)
	mapreduce.SortPairs(out)
	return out
}

func pairsEqual(a, b []records.Pair) bool {
	return slices.EqualFunc(a, b, func(x, y records.Pair) bool { return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Value, y.Value) })
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

// The shared helpers, declared in package core's tests.
var (
	check      = core.Check
	mustEngine = core.MustEngine
	countQuery = core.CountQuery
	sumReduce  = core.SumReduce
	genWords   = core.Words
	total      = core.Total
)

const (
	testWin   = 30 * simtime.Second
	testSlide = 10 * simtime.Second
)

// aggQuery and joinQ are the tests' aggregation and join at testWin
// and testSlide.
func aggQuery() *core.Query { return countQuery("agg", testWin, testSlide, "") }
func joinQ() *core.Query    { return joinQuery("join", testWin, testSlide) }

// counts renders each window's new/reused panes, or with tuples its
// new/reused pane tuples, window by window.
func counts(rres []*core.RecurrenceResult, tuples bool) string {
	var s []string
	for _, r := range rres {
		if tuples {
			s = append(s, fmt.Sprintf("%d/%d", r.NewPairs, r.ReusedPairs))
		} else {
			s = append(s, fmt.Sprintf("%d/%d", r.NewPanes, r.ReusedPanes))
		}
	}
	return strings.Join(s, " ")
}

// runBoth feeds identical batches to a Redoop engine and a baseline
// driver, each running a query mk returns, executes `windows`
// recurrences on each and fails t on a window whose outputs differ or
// are empty. gen(src, slideIdx) produces source src's batch of the units
// covering that slide; slides are fed just before the window that first
// needs them closes (batches may straddle window edges; the packer holds
// back records beyond the flush bound). between runs before each
// trigger.
func runBoth(t *testing.T, mk func() *core.Query, windows int, adaptive bool,
	gen func(src, slideIdx int) []records.Record,
	between func(r int, eng *core.Engine)) ([]*core.RecurrenceResult, []*baseline.Result) {
	t.Helper()
	q := mk()
	eng := mustEngine(t, core.Config{MR: newRig(t, 4, 1), Query: q, Adaptive: adaptive})
	drv, err := baseline.NewDriver(newRig(t, 4, 1), mk())
	check(t, err)
	var rres []*core.RecurrenceResult
	var bres []*baseline.Result
	for r, fed := 0, 0; r < windows; r++ {
		for ; int64(fed)*q.Spec().Slide < eng.Frames()[0].WindowClose(r); fed++ {
			for src := range q.Sources {
				batch := gen(src, fed)
				check(t, errors.Join(eng.Ingest(src, batch), drv.Ingest(src, batch)))
			}
		}
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
		rres, bres = append(rres, rr), append(bres, br)
		if ro, bo := sortedClone(rr.Output), sortedClone(br.Output); !pairsEqual(ro, bo) || len(ro) == 0 {
			t.Errorf("window %d: redoop and baseline disagree or are empty\n redoop:   %s\n baseline: %s",
				r, dumpPairs(ro, 12), dumpPairs(bo, 12))
		}
	}
	return rres, bres
}

// TestAggregationMatchesBaselineAcrossWindows: window 0 processes every
// pane; later windows reuse all but one.
func TestAggregationMatchesBaselineAcrossWindows(t *testing.T) {
	gen := func(_, s int) []records.Record { return genWords(100, testSlide, s, 400, 25) }
	if rres, _ := runBoth(t, aggQuery, 6, false, gen, nil); counts(rres, false) != "3/0 1/2 1/2 1/2 1/2 1/2" {
		t.Errorf("new/reused panes per window %s, want 3/0, then 1/2", counts(rres, false))
	}
}

// fasterSteady fails t unless Redoop answers every window from the third
// on faster than the baseline.
func fasterSteady(t *testing.T, rres []*core.RecurrenceResult, bres []*baseline.Result) {
	for i := 2; i < len(rres); i++ {
		if rres[i].ResponseTime >= bres[i].ResponseTime {
			t.Errorf("window %d: redoop %v not faster than baseline %v", i, rres[i].ResponseTime, bres[i].ResponseTime)
		}
	}
}

func TestAggregationRedoopFasterSteadyState(t *testing.T) {
	gen := func(_, s int) []records.Record { return genWords(7, testSlide, s, 30000, 40) }
	rres, bres := runBoth(t, aggQuery, 6, false, gen, nil)
	fasterSteady(t, rres, bres)
	// And it must re-read far fewer input bytes.
	var rRead, bRead int64
	for i := 1; i < len(rres); i++ {
		rRead, bRead = rRead+rres[i].Stats.BytesRead, bRead+bres[i].Stats.BytesRead
	}
	if rRead*2 >= bRead {
		t.Errorf("redoop re-read too much: %d vs baseline %d", rRead, bRead)
	}
}

// TestJoinMatchesBaselineAcrossWindows: window 0 computes all 9 pane
// pairs; afterwards only pairs involving the new pane (9 - 4 reused = 5
// new).
func TestJoinMatchesBaselineAcrossWindows(t *testing.T) {
	gen := func(src, s int) []records.Record { return genKV(int64(src*1000+11), testSlide, s, 60, 8) }
	if rres, _ := runBoth(t, joinQ, 5, false, gen, nil); counts(rres, true) != "9/0 5/4 5/4 5/4 5/4" {
		t.Errorf("new/reused pane pairs per window %s, want 9/0, then 5/4", counts(rres, true))
	}
}

func TestJoinRedoopFasterSteadyState(t *testing.T) {
	gen := func(src, s int) []records.Record { return genKV(int64(src*1000+13), testSlide, s, 5000, 25000) }
	rres, bres := runBoth(t, joinQ, 5, false, gen, nil)
	fasterSteady(t, rres, bres)
}

// dropCaches drops every cache of one node before each window but the
// first, the Figure 9 injection: node (r-1)%4 with shift 1, else r%4.
func dropCaches(shift int) func(r int, eng *core.Engine) {
	return func(r int, eng *core.Engine) {
		if r > 0 {
			eng.MR().Cluster.DropLocal((r-shift)%4, "cache/")
		}
	}
}

func TestAggregationSurvivesCacheLoss(t *testing.T) {
	gen := func(_, s int) []records.Record { return genWords(23, testSlide, s, 500, 20) }
	rres, _ := runBoth(t, aggQuery, 6, false, gen, dropCaches(1))
	recoveries := 0
	for _, rr := range rres {
		recoveries += rr.CacheRecoveries
	}
	if recoveries == 0 {
		t.Error("cache loss should have triggered recoveries")
	}
}

func TestJoinSurvivesCacheLoss(t *testing.T) {
	gen := func(src, s int) []records.Record { return genKV(int64(src*1000+29), testSlide, s, 50, 6) }
	runBoth(t, joinQ, 5, false, gen, dropCaches(0))
}

// failNode kills node n outright before window 2: its DFS replicas
// re-replicate and its caches are rebuilt elsewhere.
func failNode(n int) func(r int, eng *core.Engine) {
	return func(r int, eng *core.Engine) {
		if r == 2 {
			eng.MR().DFS.FailNode(n)
			eng.MR().Cluster.FailNode(n)
		}
	}
}

func TestAggregationSurvivesNodeFailure(t *testing.T) {
	gen := func(_, s int) []records.Record { return genWords(31, testSlide, s, 400, 15) }
	runBoth(t, aggQuery, 5, false, gen, failNode(1))
}

func TestAdaptiveEngineSubdividesUnderSpike(t *testing.T) {
	// Heavy data and a slow cluster: every window takes longer than the
	// slide, forcing the forecast over the deadline.
	gen := func(_, s int) []records.Record { return genWords(41, testSlide, s, 2000, 40) }
	slow := iocost.Default()
	for _, bps := range []*float64{&slow.DiskReadBps, &slow.DiskWriteBps, &slow.NetBps, &slow.MapCPUBps, &slow.ReduceCPUBps, &slow.SortBps} {
		*bps /= 20000
	}
	slow.TaskOverhead = 10 * time.Millisecond
	eng := mustEngine(t, core.Config{MR: newRigCost(t, 2, 3, slow), Query: aggQuery(), Adaptive: true})
	sawProactive := false
	for r, res := range core.Drive(t, eng, new(int), 5, gen, nil) {
		if res.Proactive {
			sawProactive = true
			if res.SubPanes < 2 {
				t.Errorf("proactive recurrence %d should use sub-panes, got %d", r, res.SubPanes)
			}
		}
	}
	if !sawProactive || !eng.Proactive() {
		t.Errorf("sustained overload should switch the engine to proactive mode (seen %v) and keep it there (%v)", sawProactive, eng.Proactive())
	}
}

// TestProactiveOutputStillCorrect: early partial processing must not
// change results.
func TestProactiveOutputStillCorrect(t *testing.T) {
	gen := func(_, s int) []records.Record { return genWords(47, testSlide, s, 600, 20) }
	runBoth(t, aggQuery, 5, false, gen, func(r int, eng *core.Engine) { check(t, eng.ForceProactive(2)) })
}

func TestCrossQueryCacheSharing(t *testing.T) {
	mr, ctrl := newRig(t, 4, 5), core.NewController()
	var engs []*core.Engine
	for _, name := range []string{"agg1", "agg2"} {
		engs = append(engs, mustEngine(t, core.Config{MR: mr, Query: countQuery(name, testWin, testSlide, "clicks"), Controller: ctrl}))
		core.Feed(t, engs[len(engs)-1], new(int), func(_, s int) []records.Record { return genWords(53, testSlide, s, 300, 10) })
	}
	var res []*core.RecurrenceResult
	for _, e := range engs {
		r, err := e.RunNext()
		check(t, err)
		res = append(res, r)
	}
	if !pairsEqual(sortedClone(res[0].Output), sortedClone(res[1].Output)) {
		t.Error("identical shared-source queries should agree")
	}
	// The second engine found every pane's reduce-input cache already
	// present (group claims keep shared caches alive across sibling
	// queries' expiries), so it read nothing from DFS.
	if res[1].Stats.BytesRead != 0 || res[0].Stats.BytesRead == 0 {
		t.Errorf("the engines read %d and %d DFS bytes, want some and 0", res[0].Stats.BytesRead, res[1].Stats.BytesRead)
	}
}

func TestEngineValidation(t *testing.T) {
	bad := aggQuery()
	bad.Merge = nil
	for what, cfg := range map[string]core.Config{
		"missing runtime": {}, "missing query": {MR: newRig(t, 2, 1)},
		"single-source query without Merge": {MR: newRig(t, 2, 1), Query: bad},
	} {
		if _, err := core.NewEngine(cfg); err == nil {
			t.Errorf("%s should fail", what)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	eng := mustEngine(t, core.Config{MR: newRig(t, 2, 1), Query: aggQuery()})
	if err := eng.Ingest(5, nil); err == nil {
		t.Error("bad source index should fail")
	}
}

func TestRecurrenceMetadata(t *testing.T) {
	eng := mustEngine(t, core.Config{MR: newRig(t, 2, 7), Query: aggQuery()})
	res := core.Drive(t, eng, new(int), 1, func(_, s int) []records.Record { return genWords(3, testSlide, s, 100, 5) }, nil)[0]
	if res.Recurrence != 0 || res.WindowLo != 0 || res.WindowHi != 2 || res.TriggerAt != simtime.Time(testWin) {
		t.Errorf("metadata wrong: %+v, want recurrence 0 over panes 0 to 2, triggered at %v", res, simtime.Time(testWin))
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
		t.Run(fmt.Sprintf("agg-seed%d", seed), func(t *testing.T) {
			runBoth(t, aggQuery, 4, false, func(_, s int) []records.Record {
				return genWords(200+seed*31, testSlide, s, 150+int(seed)*70, 12)
			}, nil)
		})
		t.Run(fmt.Sprintf("join-seed%d", seed), func(t *testing.T) {
			runBoth(t, joinQ, 4, false, func(src, s int) []records.Record {
				return genKV(seed*77+int64(src*1000), testSlide, s, 40+int(seed)*25, 7)
			}, nil)
		})
	}
}
