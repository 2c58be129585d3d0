package core_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
	"redoop/internal/workload"
)

// undersized is aggQuery with a tiny positive rate, which makes
// Algorithm 1 choose the undersized case (several panes per file)
// against the 32 KiB block size.
func undersized() *core.Query {
	q := aggQuery()
	q.Sources[0].RateBytesPerUnit = 100.0 / float64(testSlide)
	return q
}

// Undersized partition plans pack several panes into one shared DFS
// file with a locator header (§3.2); the engine must read each pane's
// byte range and still match the baseline exactly.
func TestEngineWithUndersizedPlan(t *testing.T) {
	runBoth(t, undersized, 5, false, func(_, s int) []records.Record { return genWords(77, testSlide, s, 300, 12) }, nil)
}

func TestUndersizedPlanActuallyShares(t *testing.T) {
	eng := mustEngine(t, core.Config{MR: newRig(t, 3, 21), Query: undersized()})
	if got := eng.Plans()[0].PanesPerFile; got < 2 {
		t.Fatalf("plan should pack panes, got %d per file", got)
	}
	core.Drive(t, eng, new(int), 1, func(_, s int) []records.Record { return genWords(78, testSlide, s, 100, 6) }, nil)
	found := false // the packer must have produced at least one header file
	for _, p := range eng.MR().DFS.List() {
		found = found || strings.HasSuffix(p, ".hdr")
	}
	if !found {
		t.Error("undersized plan should create multi-pane files with headers")
	}
}

// Count-based windows: win/slide in record ordinals (the paper notes
// count-based windows behave like time-based ones).
func TestCountBasedWindows(t *testing.T) {
	q := aggQuery()
	q.Sources[0].Spec = window.NewCountSpec(300, 100) // pane = 100 records
	gen := func(_, slideIdx int) []records.Record {
		out := make([]records.Record, 100)
		for i := range out {
			out[i] = records.Record{Ts: int64(slideIdx*100 + i), Data: []byte(fmt.Sprintf("w%d", (slideIdx*100+i)%7))} // ordinal axis
		}
		return out
	}
	eng := mustEngine(t, core.Config{MR: newRig(t, 3, 31), Query: q})
	for r, res := range core.Drive(t, eng, new(int), 4, gen, nil) {
		if total(res.Output) != 300 { // every window covers exactly 300 records
			t.Errorf("window %d counted %d, want 300", r, total(res.Output))
		}
		if r > 0 && res.ReusedPanes != 2 {
			t.Errorf("window %d reused %d panes, want 2", r, res.ReusedPanes)
		}
	}
}

// Proactive mode must preserve join results too.
func TestProactiveJoinStillCorrect(t *testing.T) {
	gen := func(src, s int) []records.Record { return genKV(int64(src*500+3), testSlide, s, 60, 10) }
	runBoth(t, joinQ, 4, false, gen, func(r int, eng *core.Engine) { check(t, eng.ForceProactive(2)) })
}

// Node failure mid-sequence for joins: caches and home assignments
// move, outputs must not change.
func TestJoinSurvivesNodeFailure(t *testing.T) {
	runBoth(t, joinQ, 5, false, func(src, s int) []records.Record { return genKV(int64(src*900+41), testSlide, s, 50, 8) }, failNode(2))
}

// Two queries over the same shared source but different windows must
// not corrupt each other (their pane units differ, so their cache
// namespaces are disjoint): q1's window covers 3 slides (600 records),
// q2's 4 (800 records).
func TestSharedKeyDifferentWindowsIsolated(t *testing.T) {
	mr, ctrl := newRig(t, 4, 51), core.NewController()
	engs := []*core.Engine{
		mustEngine(t, core.Config{MR: mr, Query: countQuery("agg1", 30*simtime.Second, 10*simtime.Second, "src"), Controller: ctrl}),
		mustEngine(t, core.Config{MR: mr, Query: countQuery("agg2", 40*simtime.Second, 20*simtime.Second, "src"), Controller: ctrl}),
	}
	for s := 0; s < 4; s++ {
		for _, e := range engs {
			check(t, e.Ingest(0, genWords(91, 10*simtime.Second, s, 200, 9)))
		}
	}
	for i, want := range []int{600, 800} {
		res, err := engs[i].RunNext()
		check(t, err)
		if got := total(res.Output); got != want {
			t.Errorf("q%d counted %d, want %d", i+1, got, want)
		}
	}
}

// The baseline and Redoop must agree when pane boundaries and batch
// boundaries are misaligned (win=4, slide=3 → pane=1: the paper's §3.1
// second challenge). Panes per window = 4, per slide = 3.
func TestMisalignedPaneUnits(t *testing.T) {
	win, slide := 4*simtime.Second, 3*simtime.Second // pane 1s
	mk := func() *core.Query { return countQuery("agg", win, slide, "") }
	rres, _ := runBoth(t, mk, 5, false, func(_, s int) []records.Record { return genWords(101, slide, s, 200, 10) }, nil)
	if rres[1].NewPanes != 3 || rres[1].ReusedPanes != 1 {
		t.Errorf("window 2: new=%d reused=%d, want 3/1", rres[1].NewPanes, rres[1].ReusedPanes)
	}
}

// Empty slides (no data at all for a stretch) must not wedge the
// engine or corrupt counts.
func TestEmptySlides(t *testing.T) {
	runBoth(t, aggQuery, 5, false, func(_, s int) []records.Record {
		if s%2 == 1 {
			return nil // every other slide is silent
		}
		return genWords(103, testSlide, s, 200, 6)
	}, nil)
}

// Merge function with different semantics than Reduce (sum,count →
// average) exercises the finalization path distinctly from the
// per-pane reduce.
func TestDistinctMergeSemantics(t *testing.T) {
	sumCount := func(key []byte, values [][]byte, emit mapreduce.Emitter, parse func(v []byte) (int, int)) {
		sum, n := 0, 0
		for _, v := range values {
			s, c := parse(v)
			sum, n = sum+s, n+c
		}
		emit.Emit(key, []byte(fmt.Sprintf("%d,%d", sum, n)))
	}
	mk := func() *core.Query {
		q := countQuery("avg", testWin, testSlide, "")
		q.Maps = []mapreduce.MapFunc{func(ts int64, payload []byte, emit mapreduce.Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte(strconv.FormatInt(ts%100, 10)))
		}}
		q.Combine = nil
		q.Reduce = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			sumCount(key, values, emit, func(v []byte) (int, int) { x, _ := strconv.Atoi(string(v)); return x, 1 })
		}
		q.Merge = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			sumCount(key, values, emit, func(v []byte) (s, c int) { fmt.Sscanf(string(v), "%d,%d", &s, &c); return s, c })
		}
		return q
	}
	runBoth(t, mk, 4, false, func(_, s int) []records.Record { return genWords(107, testSlide, s, 250, 5) }, nil)
}

// Three-way join: the n-dimensional status matrix and tuple caching
// must still match the baseline's full recompute exactly.
func threeWayQuery() *core.Query {
	q := joinQuery("tri", testWin, testSlide)
	q.Sources = append(q.Sources, core.Source{Name: "S3", Spec: window.NewTimeSpec(testWin, testSlide)})
	q.Maps = nil
	for _, tag := range "ABC" {
		q.Maps = append(q.Maps, func(_ int64, payload []byte, emit mapreduce.Emitter) {
			if k, v, ok := strings.Cut(string(payload), ":"); ok {
				emit.Emit([]byte(k), []byte(string(tag)+"|"+v))
			}
		})
	}
	q.Reduce = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
		sides := map[byte][]string{}
		for _, v := range values {
			if len(v) >= 2 && v[1] == '|' {
				sides[v[0]] = append(sides[v[0]], string(v[2:]))
			}
		}
		for _, a := range sides['A'] {
			for _, b := range sides['B'] {
				for _, c := range sides['C'] {
					emit.Emit(key, []byte(a+","+b+","+c))
				}
			}
		}
	}
	return q
}

// TestThreeWayJoinMatchesBaseline: window 0 computes all 27 tuples;
// later windows reuse the 8 all-old ones. Sparse keys keep the triple
// cross product small.
func TestThreeWayJoinMatchesBaseline(t *testing.T) {
	gen := func(src, s int) []records.Record { return genKV(int64(src*300+59), testSlide, s, 25, 40) }
	if rres, _ := runBoth(t, threeWayQuery, 4, false, gen, nil); counts(rres, true) != "27/0 19/8 19/8 19/8" {
		t.Errorf("new/reused tuples per window %s, want 27/0, then 19/8", counts(rres, true))
	}
}

func TestThreeWayJoinSurvivesCacheLoss(t *testing.T) {
	runBoth(t, threeWayQuery, 4, false, func(src, s int) []records.Record { return genKV(int64(src*700+67), testSlide, s, 20, 30) }, dropCaches(0))
}

// Heterogeneous windows: a join whose sources have different window
// sizes on a shared slide (S1: last 30s, S2: last 20s, every 10s).
// Redoop must agree with the per-source-windowed baseline and still
// reuse pane pairs.
func heteroJoinQuery() *core.Query {
	q := joinQuery("hj", testWin, testSlide)
	q.Sources[1].Spec = window.NewTimeSpec(20*simtime.Second, testSlide)
	return q
}

// TestHeterogeneousWindowJoin: S1 spans 3 panes, S2 spans 2 (same 10s
// pane unit), so a window has 6 pane tuples; steady state reuses the
// two all-old ones.
func TestHeterogeneousWindowJoin(t *testing.T) {
	gen := func(src, s int) []records.Record { return genKV(int64(src*400+83), testSlide, s, 50, 9) }
	if rres, _ := runBoth(t, heteroJoinQuery, 5, false, gen, nil); counts(rres, true) != "6/0 4/2 4/2 4/2 4/2" {
		t.Errorf("new/reused tuples per window %s, want 6/0, then 4/2", counts(rres, true))
	}
}

func TestHeterogeneousWindowJoinWithCacheLoss(t *testing.T) {
	runBoth(t, heteroJoinQuery, 4, false, func(src, s int) []records.Record { return genKV(int64(src*600+89), testSlide, s, 40, 7) }, dropCaches(0))
}

// Randomized window-geometry sweep: for random (win, slide) pairs —
// including misaligned panes and heterogeneous join windows — Redoop's
// incremental output must equal the baseline's full recompute on every
// window. This is the frame machinery's strongest net.
func TestRandomWindowGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep")
	}
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 6; trial++ {
		slide := simtime.Duration(rng.Intn(4)+2) * simtime.Second
		win1 := slide * simtime.Duration(rng.Intn(3)+2)
		t.Run(fmt.Sprintf("agg-trial%d", trial), func(t *testing.T) {
			runBoth(t, func() *core.Query { return countQuery("agg", win1, slide, "") }, 4, false, func(_, s int) []records.Record {
				return genWords(int64(trial*977+13), slide, s, 120+rng.Intn(150), 8)
			}, nil)
		})
		// A join partner with its own (possibly different) window.
		win2 := slide * simtime.Duration(rng.Intn(3)+1)
		t.Run(fmt.Sprintf("join-trial%d", trial), func(t *testing.T) {
			mk := func() *core.Query {
				q := joinQuery("join", win1, slide)
				q.Sources[1].Spec = window.NewTimeSpec(win2, slide)
				return q
			}
			runBoth(t, mk, 4, false, func(src, s int) []records.Record { return genKV(int64(trial*499+src*31), slide, s, 30, 6) }, nil)
		})
	}
}

// A join with a Merge finalization: instead of publishing the union of
// pair outputs, the window's matches are re-aggregated per key, one
// count per key, far smaller than the raw match union.
func TestJoinWithMergeFinalization(t *testing.T) {
	mk := func() *core.Query {
		q := joinQuery("jm", testWin, testSlide)
		q.Merge = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			emit.Emit(key, []byte(strconv.Itoa(len(values))))
		}
		return q
	}
	rres, _ := runBoth(t, mk, 4, false, func(src, s int) []records.Record { return genKV(int64(src*800+97), testSlide, s, 40, 6) }, nil)
	if len(rres[1].Output) > 6 {
		t.Errorf("merged join output should have at most 6 keys, got %d", len(rres[1].Output))
	}
}

// A custom partitioner must be honored consistently by pane jobs,
// caches and the baseline.
func TestCustomPartitioner(t *testing.T) {
	mk := func() *core.Query {
		q := countQuery("cp", testWin, testSlide, "")
		q.Partition = func(key []byte, n int) int {
			if len(key) == 0 {
				return 0
			}
			return int(key[len(key)-1]) % n
		}
		return q
	}
	runBoth(t, mk, 4, false, func(_, s int) []records.Record { return genWords(113, testSlide, s, 250, 9) }, nil)
}

// Engine accessors exist for operational tooling; smoke them.
func TestEngineAccessors(t *testing.T) {
	q := countQuery("acc", testWin, testSlide, "")
	eng := mustEngine(t, core.Config{MR: newRig(t, 2, 71), Query: q})
	if eng.Query() != q || eng.Controller() == nil || eng.Profiler() == nil || eng.Matrix() == nil {
		t.Error("accessors should be wired")
	}
	if _, err := eng.Matrix().Done(0); err != nil {
		t.Errorf("single-source matrix should be 1-D: %v", err)
	}
	core.Drive(t, eng, new(int), 1, func(_, s int) []records.Record { return genWords(5, testSlide, s, 60, 4) }, nil)
	// Pane 0 was retired (and its file dropped) after recurrence 0;
	// panes still inside the next window remain resolvable.
	if _, ok := eng.PaneInputs(0, 2); !ok {
		t.Error("pane 2 should have inputs")
	}
	if _, ok := eng.PaneInputs(0, 0); ok {
		t.Error("retired pane 0's file should be garbage-collected")
	}
}

// Smooth diurnal load with an adaptive engine: outputs stay correct
// while the profiler tracks the swelling and ebbing volume.
func TestAdaptiveUnderDiurnalLoad(t *testing.T) {
	sched := workload.Diurnal(8, 0.8, 4)
	mk := func() *core.Query { return countQuery("diurnal", testWin, testSlide, "") }
	runBoth(t, mk, 8, true, func(_, s int) []records.Record { return genWords(131, testSlide, s, int(200*sched(s)), 8) }, nil)
}

// Proactive sub-panes combined with an undersized multi-pane plan:
// the packer routes subdivided panes to their own files even when the
// base plan packs panes together, and results stay exact.
func TestProactiveWithUndersizedPlan(t *testing.T) {
	runBoth(t, undersized, 5, false, func(_, s int) []records.Record { return genWords(137, testSlide, s, 200, 7) }, func(r int, eng *core.Engine) {
		if r >= 1 {
			check(t, eng.ForceProactive(2))
		}
	})
}
