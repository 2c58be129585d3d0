package core_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
	"redoop/internal/workload"
)

// Undersized partition plans pack several panes into one shared DFS
// file with a locator header (§3.2); the engine must read each pane's
// byte range and still match the baseline exactly.
func TestEngineWithUndersizedPlan(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	// A tiny positive rate makes Algorithm 1 choose the undersized
	// case (several panes per file) against the 32 KiB block size.
	q.Sources[0].RateBytesPerUnit = 100.0 / float64(testSlide)
	qb := countQuery("agg", testWin, testSlide, "")
	gen := func(_, s int) []records.Record { return genWords(77, testSlide, s, 300, 12) }
	rres, bres := runBoth(t, q, qb, 5, false, gen, nil)
	assertSameOutputs(t, rres, bres)
}

func TestUndersizedPlanActuallyShares(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	q.Sources[0].RateBytesPerUnit = 100.0 / float64(testSlide)
	eng := mustEngine(t, core.Config{MR: newRig(t, 3, 21), Query: q})
	if got := eng.Plans()[0].PanesPerFile; got < 2 {
		t.Fatalf("plan should pack panes, got %d per file", got)
	}
	for s := 0; s < 3; s++ {
		if err := eng.Ingest(0, genWords(78, testSlide, s, 100, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunNext(); err != nil {
		t.Fatal(err)
	}
	// The packer must have produced at least one header file.
	found := false
	for _, p := range eng.MR().DFS.List() {
		if len(p) > 4 && p[len(p)-4:] == ".hdr" {
			found = true
		}
	}
	if !found {
		t.Error("undersized plan should create multi-pane files with headers")
	}
}

// Count-based windows: win/slide in record ordinals (the paper notes
// count-based windows behave like time-based ones).
func TestCountBasedWindows(t *testing.T) {
	mkQuery := func() *core.Query {
		q := countQuery("agg", testWin, testSlide, "")
		q.Sources[0].Spec = window.NewCountSpec(300, 100) // pane = 100 records
		return q
	}
	gen := func(slideIdx int) []records.Record {
		out := make([]records.Record, 100)
		for i := range out {
			out[i] = records.Record{
				Ts:   int64(slideIdx*100 + i), // ordinal axis
				Data: []byte(fmt.Sprintf("w%d", (slideIdx*100+i)%7)),
			}
		}
		return out
	}
	eng := mustEngine(t, core.Config{MR: newRig(t, 3, 31), Query: mkQuery()})
	fed := 0
	for r := 0; r < 4; r++ {
		for ; fed < 3+r; fed++ {
			if err := eng.Ingest(0, gen(fed)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		// Every window covers exactly 300 records.
		total := 0
		for _, p := range res.Output {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
		if total != 300 {
			t.Errorf("window %d counted %d, want 300", r, total)
		}
		if r > 0 && res.ReusedPanes != 2 {
			t.Errorf("window %d reused %d panes, want 2", r, res.ReusedPanes)
		}
	}
}

// Proactive mode must preserve join results too.
func TestProactiveJoinStillCorrect(t *testing.T) {
	q := joinQuery("join", testWin, testSlide)
	qb := joinQuery("join", testWin, testSlide)
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*500+3), testSlide, s, 60, 10)
	}
	between := func(r int, eng *core.Engine) {
		if err := eng.ForceProactive(2); err != nil {
			t.Fatal(err)
		}
	}
	rres, bres := runBoth(t, q, qb, 4, false, gen, between)
	assertSameOutputs(t, rres, bres)
}

// Node failure mid-sequence for joins: caches and home assignments
// move, outputs must not change.
func TestJoinSurvivesNodeFailure(t *testing.T) {
	q := joinQuery("join", testWin, testSlide)
	qb := joinQuery("join", testWin, testSlide)
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*900+41), testSlide, s, 50, 8)
	}
	between := func(r int, eng *core.Engine) {
		if r == 2 {
			eng.MR().DFS.FailNode(2)
			eng.MR().Cluster.FailNode(2)
		}
	}
	rres, bres := runBoth(t, q, qb, 5, false, gen, between)
	assertSameOutputs(t, rres, bres)
}

// Two queries over the same shared source but different windows must
// not corrupt each other (their pane units differ, so their cache
// namespaces are disjoint).
func TestSharedKeyDifferentWindowsIsolated(t *testing.T) {
	mr := newRig(t, 4, 51)
	ctrl := core.NewController()
	q1 := countQuery("agg1", 30*simtime.Second, 10*simtime.Second, "src")
	q2 := countQuery("agg2", 40*simtime.Second, 20*simtime.Second, "src")
	e1 := mustEngine(t, core.Config{MR: mr, Query: q1, Controller: ctrl})
	e2 := mustEngine(t, core.Config{MR: mr, Query: q2, Controller: ctrl})

	gen := func(s int) []records.Record { return genWords(91, 10*simtime.Second, s, 200, 9) }
	for s := 0; s < 4; s++ {
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
	// q1's window covers 3 slides (600 records), q2's covers 4 slides
	// (800 records).
	count := func(out []records.Pair) int {
		total := 0
		for _, p := range out {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
		return total
	}
	if got := count(r1.Output); got != 600 {
		t.Errorf("q1 counted %d, want 600", got)
	}
	if got := count(r2.Output); got != 800 {
		t.Errorf("q2 counted %d, want 800", got)
	}
}

// A second engine run must be able to continue after the first query's
// caches expire: long sequences exercise expiry + shift + purge
// without unbounded growth.
func TestLongRunBoundedCaches(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	eng := mustEngine(t, core.Config{MR: newRig(t, 3, 61), Query: q})
	gen := func(s int) []records.Record { return genWords(95, testSlide, s, 150, 8) }
	fed := 0
	var sizes []int64
	for r := 0; r < 12; r++ {
		for ; fed < 3+r; fed++ {
			if err := eng.Ingest(0, gen(fed)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, n := range eng.MR().Cluster.Nodes() {
			total += n.LocalBytes()
		}
		sizes = append(sizes, total)
	}
	// Steady state: local cache volume must not keep growing — compare
	// the last windows against the mid-run level.
	mid, last := sizes[5], sizes[len(sizes)-1]
	if last > mid*2 {
		t.Errorf("cache volume grows unboundedly: mid=%d last=%d", mid, last)
	}
	// Expired panes' DFS files are garbage-collected, so total DFS
	// volume stays bounded too (window data + a few unexpired panes).
	total := eng.MR().DFS.TotalBytes()
	var windowBytes int64
	lo, hi := eng.Frames()[0].WindowRange(11)
	for p := lo; p <= hi; p++ {
		windowBytes += eng.Packer(0).PaneBytes(p)
	}
	if total > windowBytes*4 {
		t.Errorf("DFS grows unboundedly: total=%d for window volume %d", total, windowBytes)
	}
}

// The baseline and Redoop must agree when pane boundaries and batch
// boundaries are misaligned (win=4, slide=3 → pane=1: the paper's §3.1
// second challenge).
func TestMisalignedPaneUnits(t *testing.T) {
	win, slide := 4*simtime.Second, 3*simtime.Second // pane 1s
	q := countQuery("agg", win, slide, "")
	qb := countQuery("agg", win, slide, "")
	gen := func(_, s int) []records.Record { return genWords(101, slide, s, 200, 10) }
	rres, bres := runBoth(t, q, qb, 5, false, gen, nil)
	assertSameOutputs(t, rres, bres)
	// Panes per window = 4, per slide = 3.
	if rres[1].NewPanes != 3 || rres[1].ReusedPanes != 1 {
		t.Errorf("window 2: new=%d reused=%d, want 3/1", rres[1].NewPanes, rres[1].ReusedPanes)
	}
}

// Empty slides (no data at all for a stretch) must not wedge the
// engine or corrupt counts.
func TestEmptySlides(t *testing.T) {
	q := countQuery("agg", testWin, testSlide, "")
	qb := countQuery("agg", testWin, testSlide, "")
	gen := func(_, s int) []records.Record {
		if s%2 == 1 {
			return nil // every other slide is silent
		}
		return genWords(103, testSlide, s, 200, 6)
	}
	rres, bres := runBoth(t, q, qb, 5, false, gen, nil)
	for i := range rres {
		ro := sortedClone(rres[i].Output)
		bo := sortedClone(bres[i].Output)
		if !pairsEqual(ro, bo) {
			t.Errorf("window %d disagrees under empty slides", i)
		}
	}
}

// Merge function with different semantics than Reduce (sum,count →
// average) exercises the finalization path distinctly from the
// per-pane reduce.
func TestDistinctMergeSemantics(t *testing.T) {
	mk := func() *core.Query {
		q := countQuery("avg", testWin, testSlide, "")
		q.Maps = []mapreduce.MapFunc{func(ts int64, payload []byte, emit mapreduce.Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte(strconv.FormatInt(ts%100, 10)))
		}}
		q.Combine = nil
		q.Reduce = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			sum, n := 0, 0
			for _, v := range values {
				x, _ := strconv.Atoi(string(v))
				sum += x
				n++
			}
			emit.Emit(key, []byte(fmt.Sprintf("%d,%d", sum, n)))
		}
		q.Merge = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			sum, n := 0, 0
			for _, v := range values {
				var s, c int
				fmt.Sscanf(string(v), "%d,%d", &s, &c)
				sum += s
				n += c
			}
			emit.Emit(key, []byte(fmt.Sprintf("%d,%d", sum, n)))
		}
		return q
	}
	gen := func(_, s int) []records.Record { return genWords(107, testSlide, s, 250, 5) }
	rres, bres := runBoth(t, mk(), mk(), 4, false, gen, nil)
	assertSameOutputs(t, rres, bres)
}

// Three-way join: the n-dimensional status matrix and tuple caching
// must still match the baseline's full recompute exactly.
func threeWayQuery(name string) *core.Query {
	tag := func(prefix byte) mapreduce.MapFunc {
		return func(_ int64, payload []byte, emit mapreduce.Emitter) {
			i := 0
			for i < len(payload) && payload[i] != ':' {
				i++
			}
			if i == len(payload) {
				return
			}
			key := append([]byte(nil), payload[:i]...)
			val := append([]byte{prefix, '|'}, payload[i+1:]...)
			emit.Emit(key, val)
		}
	}
	return &core.Query{
		Name: name,
		Sources: []core.Source{
			{Name: "S1", Spec: window.NewTimeSpec(testWin, testSlide)},
			{Name: "S2", Spec: window.NewTimeSpec(testWin, testSlide)},
			{Name: "S3", Spec: window.NewTimeSpec(testWin, testSlide)},
		},
		Maps: []mapreduce.MapFunc{tag('A'), tag('B'), tag('C')},
		Reduce: func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			var as, bs, cs [][]byte
			for _, v := range values {
				if len(v) < 2 || v[1] != '|' {
					continue
				}
				switch v[0] {
				case 'A':
					as = append(as, v[2:])
				case 'B':
					bs = append(bs, v[2:])
				case 'C':
					cs = append(cs, v[2:])
				}
			}
			for _, a := range as {
				for _, b := range bs {
					for _, c := range cs {
						out := make([]byte, 0, len(a)+len(b)+len(c)+2)
						out = append(out, a...)
						out = append(out, ',')
						out = append(out, b...)
						out = append(out, ',')
						out = append(out, c...)
						emit.Emit(key, out)
					}
				}
			}
		},
		NumReducers: 2,
	}
}

func TestThreeWayJoinMatchesBaseline(t *testing.T) {
	q := threeWayQuery("tri")
	qb := threeWayQuery("tri")
	gen := func(src, s int) []records.Record {
		// Sparse keys keep the triple cross product small.
		return genKV(int64(src*300+59), testSlide, s, 25, 40)
	}
	rres, bres := runBoth(t, q, qb, 4, false, gen, nil)
	for i := range rres {
		ro := sortedClone(rres[i].Output)
		bo := sortedClone(bres[i].Output)
		if !pairsEqual(ro, bo) {
			t.Errorf("window %d: 3-way join disagrees with baseline", i)
		}
	}
	// Window 0 computes all 27 tuples; later windows reuse the 8
	// all-old ones.
	if rres[0].NewPairs != 27 {
		t.Errorf("window 0 tuples = %d, want 27", rres[0].NewPairs)
	}
	for i := 1; i < len(rres); i++ {
		if rres[i].ReusedPairs != 8 || rres[i].NewPairs != 19 {
			t.Errorf("window %d: new=%d reused=%d tuples, want 19/8",
				i, rres[i].NewPairs, rres[i].ReusedPairs)
		}
	}
}

func TestThreeWayJoinSurvivesCacheLoss(t *testing.T) {
	q := threeWayQuery("tri")
	qb := threeWayQuery("tri")
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*700+67), testSlide, s, 20, 30)
	}
	between := func(r int, eng *core.Engine) {
		if r > 0 {
			eng.MR().Cluster.DropLocal(r%4, "cache/")
		}
	}
	rres, bres := runBoth(t, q, qb, 4, false, gen, between)
	for i := range rres {
		if !pairsEqual(sortedClone(rres[i].Output), sortedClone(bres[i].Output)) {
			t.Errorf("window %d: 3-way join under cache loss disagrees", i)
		}
	}
}

// Heterogeneous windows: a join whose sources have different window
// sizes on a shared slide (S1: last 30s, S2: last 20s, every 10s).
// Redoop must agree with the per-source-windowed baseline and still
// reuse pane pairs.
func heteroJoinQuery(name string) *core.Query {
	q := joinQuery(name, testWin, testSlide)
	q.Sources[1].Spec = window.NewTimeSpec(20*simtime.Second, testSlide)
	return q
}

func TestHeterogeneousWindowJoin(t *testing.T) {
	q := heteroJoinQuery("hj")
	qb := heteroJoinQuery("hj")
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*400+83), testSlide, s, 50, 9)
	}
	rres, bres := runBoth(t, q, qb, 5, false, gen, nil)
	for i := range rres {
		ro := sortedClone(rres[i].Output)
		bo := sortedClone(bres[i].Output)
		if !pairsEqual(ro, bo) {
			t.Errorf("window %d: heterogeneous join disagrees with baseline\n redoop:   %s\n baseline: %s",
				i, dumpPairs(ro, 8), dumpPairs(bo, 8))
		}
	}
	// Pane tuples: S1 spans 3 panes, S2 spans 2 (same 10s pane unit) ⇒
	// 6 tuples per window; steady state reuses the all-old ones.
	if rres[0].NewPairs != 6 {
		t.Errorf("window 0 tuples = %d, want 6", rres[0].NewPairs)
	}
	for i := 1; i < len(rres); i++ {
		if rres[i].ReusedPairs == 0 {
			t.Errorf("window %d should reuse tuples, got new=%d reused=%d",
				i, rres[i].NewPairs, rres[i].ReusedPairs)
		}
	}
}

func TestHeterogeneousWindowJoinWithCacheLoss(t *testing.T) {
	q := heteroJoinQuery("hj")
	qb := heteroJoinQuery("hj")
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*600+89), testSlide, s, 40, 7)
	}
	between := func(r int, eng *core.Engine) {
		if r > 0 {
			eng.MR().Cluster.DropLocal(r%4, "cache/")
		}
	}
	rres, bres := runBoth(t, q, qb, 4, false, gen, between)
	for i := range rres {
		if !pairsEqual(sortedClone(rres[i].Output), sortedClone(bres[i].Output)) {
			t.Errorf("window %d: heterogeneous join under cache loss disagrees", i)
		}
	}
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
		trial := trial
		slide := simtime.Duration(rng.Intn(4)+2) * simtime.Second
		win1 := slide * simtime.Duration(rng.Intn(3)+2)
		t.Run(fmt.Sprintf("agg-trial%d", trial), func(t *testing.T) {
			q := countQuery("agg", win1, slide, "")
			qb := countQuery("agg", win1, slide, "")
			gen := func(_, s int) []records.Record {
				return genWords(int64(trial*977+13), slide, s, 120+rng.Intn(150), 8)
			}
			rres, bres := runBoth(t, q, qb, 4, false, gen, nil)
			assertSameOutputs(t, rres, bres)
		})
		// A join partner with its own (possibly different) window.
		win2 := slide * simtime.Duration(rng.Intn(3)+1)
		t.Run(fmt.Sprintf("join-trial%d", trial), func(t *testing.T) {
			mk := func() *core.Query {
				q := joinQuery("join", win1, slide)
				q.Sources[1].Spec = window.NewTimeSpec(win2, slide)
				return q
			}
			gen := func(src, s int) []records.Record {
				return genKV(int64(trial*499+src*31), slide, s, 30, 6)
			}
			rres, bres := runBoth(t, mk(), mk(), 4, false, gen, nil)
			for i := range rres {
				ro := sortedClone(rres[i].Output)
				bo := sortedClone(bres[i].Output)
				if !pairsEqual(ro, bo) {
					t.Errorf("trial %d (win1=%v win2=%v slide=%v) window %d disagrees",
						trial, win1, win2, slide, i)
				}
			}
		})
	}
}

// A join with a Merge finalization: instead of publishing the union of
// pair outputs, the window's matches are re-aggregated per key.
func TestJoinWithMergeFinalization(t *testing.T) {
	mk := func() *core.Query {
		q := joinQuery("jm", testWin, testSlide)
		q.Merge = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			// Count the window's join matches per key.
			emit.Emit(key, []byte(strconv.Itoa(len(values))))
		}
		return q
	}
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*800+97), testSlide, s, 40, 6)
	}
	rres, bres := runBoth(t, mk(), mk(), 4, false, gen, nil)
	assertSameOutputs(t, rres, bres)
	// The merged output is one count per key, far smaller than the
	// raw match union.
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
	gen := func(_, s int) []records.Record { return genWords(113, testSlide, s, 250, 9) }
	rres, bres := runBoth(t, mk(), mk(), 4, false, gen, nil)
	assertSameOutputs(t, rres, bres)
}

// Engine accessors exist for operational tooling; smoke them.
func TestEngineAccessors(t *testing.T) {
	q := countQuery("acc", testWin, testSlide, "")
	eng := mustEngine(t, core.Config{MR: newRig(t, 2, 71), Query: q})
	if eng.Query() != q || eng.Controller() == nil || eng.Scheduler() == nil ||
		eng.Profiler() == nil || eng.Matrix() == nil {
		t.Error("accessors should be wired")
	}
	if _, err := eng.Matrix().Done(0); err != nil {
		t.Errorf("single-source matrix should be 1-D: %v", err)
	}
	for s := 0; s < 3; s++ {
		eng.Ingest(0, genWords(5, testSlide, s, 60, 4))
	}
	if _, err := eng.RunNext(); err != nil {
		t.Fatal(err)
	}
	// Pane 0 was retired (and its file dropped) after recurrence 0;
	// panes still inside the next window remain resolvable.
	if _, ok := eng.PaneInputs(0, 2); !ok {
		t.Error("pane 2 should have inputs")
	}
	if _, ok := eng.PaneInputs(0, 0); ok {
		t.Error("retired pane 0's file should be garbage-collected")
	}
	if eng.Packer(0) == nil {
		t.Error("private source should expose its packer")
	}
	if eng.Packer(0).SourceName() != "S1" {
		t.Error("packer source name wrong")
	}
}

// Smooth diurnal load with an adaptive engine: outputs stay correct
// while the profiler tracks the swelling and ebbing volume.
func TestAdaptiveUnderDiurnalLoad(t *testing.T) {
	q := countQuery("diurnal", testWin, testSlide, "")
	qb := countQuery("diurnal", testWin, testSlide, "")
	sched := workload.Diurnal(8, 0.8, 4)
	gen := func(_, s int) []records.Record {
		n := int(200 * sched(s))
		return genWords(131, testSlide, s, n, 8)
	}
	rres, bres := runBoth(t, q, qb, 8, true, gen, nil)
	assertSameOutputs(t, rres, bres)
}

// Proactive sub-panes combined with an undersized multi-pane plan:
// the packer routes subdivided panes to their own files even when the
// base plan packs panes together, and results stay exact.
func TestProactiveWithUndersizedPlan(t *testing.T) {
	mk := func() *core.Query {
		q := countQuery("pu", testWin, testSlide, "")
		q.Sources[0].RateBytesPerUnit = 100.0 / float64(testSlide)
		return q
	}
	gen := func(_, s int) []records.Record { return genWords(137, testSlide, s, 200, 7) }
	between := func(r int, eng *core.Engine) {
		if r >= 1 {
			if err := eng.ForceProactive(2); err != nil {
				t.Fatal(err)
			}
		}
	}
	rres, bres := runBoth(t, mk(), mk(), 5, false, gen, between)
	assertSameOutputs(t, rres, bres)
}
