package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/iocost"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Internal-view engine tests: these reach into unexported state (cache
// PIDs, controller registries) that the black-box suite in
// engine_test.go cannot see.

func internalRig(t testing.TB, workers int, seed int64) *mapreduce.Engine {
	t.Helper()
	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i
	}
	cl := newCluster(t, cluster.Config{Workers: workers, MapSlots: 4, ReduceSlots: 2})
	d := newDFS(t, dfs.Config{BlockSize: 256 << 10, Replication: 2, Nodes: ids, Seed: seed})
	mr, err := mapreduce.New(cl, d, iocost.Default())
	check(t, err)
	return mr
}

// newCluster is cluster.New for a configuration the test knows is valid.
func newCluster(t testing.TB, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cfg)
	check(t, err)
	return cl
}

// newDFS is dfs.New for a configuration the test knows is valid.
func newDFS(t testing.TB, cfg dfs.Config) *dfs.DFS {
	t.Helper()
	d, err := dfs.New(cfg)
	check(t, err)
	return d
}

// check fails t on err, from a call the test knows succeeds.
func check(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// MustEngine is NewEngine for a configuration the test knows is valid.
func MustEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg)
	check(t, err)
	return eng
}

// SumReduce aggregates integer values; it doubles as the combiner and
// the finalization merge (sums are algebraic).
func SumReduce(key []byte, values [][]byte, emit mapreduce.Emitter) {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	emit.Emit(key, []byte(strconv.Itoa(total)))
}

// CountQuery is a recurring word-count aggregation over one source.
func CountQuery(name string, win, slide simtime.Duration, cacheKey string) *Query {
	return &Query{
		Name:    name,
		Sources: []Source{{Name: "S1", Spec: window.NewTimeSpec(win, slide), CacheKey: cacheKey}},
		Maps: []mapreduce.MapFunc{func(_ int64, payload []byte, emit mapreduce.Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte("1"))
		}},
		Reduce:      SumReduce,
		Combine:     SumReduce,
		Merge:       SumReduce,
		NumReducers: 2,
	}
}

// Words is one slide's batch of n words over vocab for slide slideIdx,
// deterministic per seed.
func Words(seed int64, slide simtime.Duration, slideIdx, n, vocab int) []records.Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	base := int64(slideIdx) * int64(slide)
	out := make([]records.Record, n)
	for i := range out {
		out[i] = records.Record{Ts: base + rng.Int63n(int64(slide)), Data: []byte(fmt.Sprintf("w%02d", rng.Intn(vocab)))}
	}
	return out
}

// Damages corrupt a cache's bytes in place: a checksum, or a magic.
var Damages = map[string]func([]byte){
	"checksum": func(b []byte) { b[len(b)/2] ^= 0x40 },
	"magic":    func(b []byte) { b[0] ^= 0x40 },
}

// Total sums a count query's output.
func Total(out []records.Pair) int {
	n := 0
	for _, p := range out {
		v, _ := strconv.Atoi(string(p.Value))
		n += v
	}
	return n
}

// Feed ingests into every source of eng gen(src, s)'s batch of each
// slide s that starts before its next recurrence's close; fed counts the
// slides fed, across calls.
func Feed(t testing.TB, eng *Engine, fed *int, gen func(src, s int) []records.Record) {
	t.Helper()
	for close := eng.frames[0].WindowClose(eng.NextRecurrence()); int64(*fed)*eng.query.Spec().Slide < close; *fed++ {
		for src := range eng.query.Sources {
			check(t, eng.Ingest(src, gen(src, *fed)))
		}
	}
}

// Drive runs eng's next n recurrences, each fed first (Feed) and then
// handed to before, when set, and returns their results.
func Drive(t testing.TB, eng *Engine, fed *int, n int, gen func(src, s int) []records.Record, before func(r int)) []*RecurrenceResult {
	t.Helper()
	var out []*RecurrenceResult
	for range n {
		r := eng.NextRecurrence()
		Feed(t, eng, fed, gen)
		if before != nil {
			before(r)
		}
		res, err := eng.RunNext()
		if err != nil {
			t.Fatalf("recurrence %d: %v", r, err)
		}
		out = append(out, res)
	}
	return out
}

// TestSegmentPhasesKeepTheSortedMark: a proactive pane is several
// segments. Each segment's committed map phase, what a sub-pane reduce
// runs on, keeps the map side's sorted mark; the pane's merge of them,
// what the join's cache build and a whole-pane reduce read, drops it.
func TestSegmentPhasesKeepTheSortedMark(t *testing.T) {
	win, slide := 30*simtime.Second, 10*simtime.Second
	eng := MustEngine(t, Config{MR: internalRig(t, 3, 9), Query: CountQuery("agg", win, slide, "")})
	check(t, eng.ForceProactive(3))
	res := Drive(t, eng, new(int), 1, func(_, s int) []records.Record { return Words(61, slide, s, 200, 10) }, nil)[0]
	pp := eng.preparePane(0, res.WindowHi, nil)
	if pp.err != nil || len(pp.preps) < 2 {
		t.Fatalf("pane %d: %d segments (%v), want several", res.WindowHi, len(pp.preps), pp.err)
	}
	for i, prep := range pp.preps {
		mp, err := eng.mr.CommitMapPhase(prep, res.TriggerAt)
		check(t, err)
		if !mp.PartsSorted() {
			t.Fatalf("segment %d's map phase is not marked sorted", i)
		}
		mp.Release()
	}
	var stats mapreduce.Stats
	merged, err := eng.commitPaneMapPhase(0, res.WindowHi, res.TriggerAt, eng.preparePane(0, res.WindowHi, nil), &stats)
	check(t, err)
	if merged.PartsSorted() {
		t.Fatal("the merge of a pane's segments kept the sorted mark")
	}
	merged.Release()
}

// TestRollUpPaneCachesMatchItsPairs: a 2x roll-up over a shared hub maps
// each of its panes as two segments, whose pairs are laid out and
// concatenated before the reduce. Pane 0's reduce-input caches, one-valued
// (no combiner), must be EncodePairs of the segments' pairs in SortPairs
// order, and its reduce outputs the reduce of them, at one and two
// workers.
func TestRollUpPaneCachesMatchItsPairs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		mr := internalRig(t, 3, 17)
		mr.Workers = workers
		hub := NewSourceHub(mr.DFS, mr.DFS.BlockSize())
		check(t, hub.Share("k", "s", hubSpec(), 0))
		q := CountQuery("agg", 20*simtime.Second, 20*simtime.Second, "")
		q.Combine, q.Sources[0].CacheKey = nil, "k"
		eng := MustEngine(t, Config{MR: mr, Query: q, Hub: hub})
		for s := 0; s < 2; s++ {
			check(t, hub.Ingest("k", Words(23, 10*simtime.Second, s, 300, 12)))
		}
		check(t, eng.srcs[0].FlushThrough(eng.frames[0].WindowClose(0)))
		gs := mr.Groupers(nil)
		pp := eng.preparePane(0, 0, gs)
		mr.PutGroupers(gs)
		if pp.err != nil || len(pp.ins) != 2 {
			t.Fatalf("workers %d: pane 0 has %d segments (%v), want two", workers, len(pp.ins), pp.err)
		}
		want := make([][]records.Pair, q.NumReducers)
		for _, in := range pp.ins {
			mp, err := mr.RunMapPhase(eng.jobs[0], []mapreduce.Input{in.Input}, 0)
			check(t, err)
			for r, ps := range mp.Parts {
				want[r] = append(want[r], ps...)
			}
		}
		pairs, outs := 0, map[int][]byte{}
		for _, rr := range pp.red {
			outs[rr.Part] = rr.OutData
		}
		for r, ps := range want {
			mapreduce.SortPairs(ps)
			pairs += len(ps)
			if got := pp.rin[r]; string(got) != string(colfmt.EncodePairs(ps)) {
				t.Fatalf("workers %d: partition %d's reduce-input cache is %d bytes, its %d pairs encode to %d", workers, r, len(got), len(ps), len(colfmt.EncodePairs(ps)))
			}
			out := mapreduce.ReduceGroups(q.Reduce, mapreduce.GroupPairs(ps))
			if string(outs[r]) != string(colfmt.EncodePairs(out)) {
				t.Fatalf("workers %d: partition %d's reduce output differs from the reduce of its pairs", workers, r)
			}
		}
		if pairs != 600 {
			t.Fatalf("workers %d: pane 0 maps to %d pairs, want one per record, 600", workers, pairs)
		}
	}
}

// Reduce partitions get their home nodes on the first recurrence that
// reduces them, not before.
func TestHomesAssignedByFirstRecurrence(t *testing.T) {
	slide := 10 * simtime.Second
	eng := MustEngine(t, Config{MR: internalRig(t, 2, 2), Query: CountQuery("agg", 3*slide, slide, "")})
	Drive(t, eng, new(int), 1, func(_, s int) []records.Record { return Words(5, slide, s, 100, 6) }, func(int) {
		if len(eng.sched.homes) != 0 {
			t.Error("no homes before any reduce ran")
		}
	})
	if len(eng.sched.homes) == 0 {
		t.Error("homes should be assigned after a recurrence")
	}
}

// TestExpiredCachesArePurged: expired caches must actually leave the
// task nodes. After six windows pane 0's output caches are gone from the
// controller and from every node, while the current window's survive.
func TestExpiredCachesArePurged(t *testing.T) {
	slide := 10 * simtime.Second
	q := CountQuery("agg", 3*slide, slide, "")
	eng := MustEngine(t, Config{MR: internalRig(t, 3, 9), Query: q})
	Drive(t, eng, new(int), 6, func(_, s int) []records.Record { return Words(61, slide, s, 200, 10) }, nil)
	for part := 0; part < q.NumReducers; part++ {
		pid := q.ReduceOutputPanePID(0, part)
		if _, ok := eng.ctrl.Lookup(pid, ReduceOutput); ok {
			t.Errorf("pane 0 output signature (part %d) should be purged", part)
		}
		for _, n := range eng.mr.Cluster.Nodes() {
			if eng.ctrl.Registry(n.ID).Has(pid, ReduceOutput) {
				t.Errorf("pane 0 output cache still on node %d", n.ID)
			}
		}
	}
	_, hi := eng.frames[0].WindowRange(5)
	if _, ok := eng.ctrl.Lookup(q.ReduceOutputPanePID(hi, 0), ReduceOutput); !ok {
		t.Error("current window's caches should be retained")
	}
}

// TestCachePIDNamespaces: the PID helpers embed scope, source, pane unit,
// pane and partition, so shared and private caches, inputs and outputs,
// and pane tuples in either order never collide, and a scope's rin prefix
// matches its own PIDs alone.
func TestCachePIDNamespaces(t *testing.T) {
	q := CountQuery("agg", 30*simtime.Second, 10*simtime.Second, "")
	private := q.ReduceInputPID(0, q.Spec().PaneUnit(), 3, 1)
	q.Sources[0].CacheKey = "clicks"
	shared, prefix, out := q.ReduceInputPID(0, q.Spec().PaneUnit(), 3, 1), q.rinPrefix(0, q.Spec().PaneUnit()), q.ReduceOutputPanePID(3, 1)
	if private == shared || !strings.HasPrefix(shared, prefix) || strings.HasPrefix(private, prefix) || out == private || out == shared {
		t.Errorf("rin PIDs %q (private) and %q (shared, prefix %q) and rout %q collide", private, shared, prefix, out)
	}
	if q.ReduceOutputTuplePID(paneTuple{1, 2}, 0) == q.ReduceOutputTuplePID(paneTuple{2, 1}, 0) {
		t.Error("pair PIDs must be order-sensitive")
	}
}

// The PID builders append to a stack buffer; the formats they replaced
// are kept here as the reference. PIDs are compared as strings by the
// oracle, the lineage store and every golden, so the bytes must not move.
func TestPIDsMatchTheirFormatStrings(t *testing.T) {
	oldKey := func(t paneTuple) string {
		parts := make([]string, len(t))
		for i, p := range t {
			parts[i] = fmt.Sprintf("%d", int64(p))
		}
		return strings.Join(parts, "_")
	}
	panes := []window.PaneID{0, 9, 10, 255, 256, 1 << 40}
	names := []string{"agg", strings.Repeat("a-long-query-name/", 12)} // the second outgrows pidBuf
	for _, name := range names {
		for _, cacheKey := range []string{"", "clicks"} {
			q := &Query{Name: name, Sources: []Source{{Name: "S1"}, {Name: "events", CacheKey: cacheKey}}}
			for src := range q.Sources {
				scope := "query/" + name
				if k := q.Sources[src].CacheKey; k != "" {
					scope = "shared/" + k
				}
				if got := q.rinScope(src); got != scope {
					t.Fatalf("rinScope(%d) = %q, want %q", src, got, scope)
				}
				for _, unit := range []int64{1, 360e9} {
					wantPrefix := fmt.Sprintf("%s/%s/u%d/P", scope, q.Sources[src].Name, unit)
					if got := q.rinPrefix(src, unit); got != wantPrefix {
						t.Fatalf("rinPrefix = %q, want %q", got, wantPrefix)
					}
					for _, p := range panes {
						for part := 0; part < 20; part++ {
							want := fmt.Sprintf("%s/%s/u%d/P%d/r%d", scope, q.Sources[src].Name, unit, int64(p), part)
							if got := q.ReduceInputPID(src, unit, p, part); got != want {
								t.Fatalf("ReduceInputPID = %q, want %q", got, want)
							}
						}
					}
				}
			}
			for _, p := range panes {
				for part := 0; part < 20; part++ {
					want := fmt.Sprintf("query/%s/P%d/r%d", name, int64(p), part)
					if got := q.ReduceOutputPanePID(p, part); got != want {
						t.Fatalf("ReduceOutputPanePID = %q, want %q", got, want)
					}
					for arity := 1; arity <= 3; arity++ {
						for _, p2 := range panes {
							tuple := paneTuple{p, p2, 1 << 40}[:arity]
							want := fmt.Sprintf("query/%s/P%s/r%d", name, oldKey(tuple), part)
							if got := q.ReduceOutputTuplePID(tuple, part); got != want {
								t.Fatalf("ReduceOutputTuplePID(%v) = %q, want %q", tuple, got, want)
							}
						}
					}
				}
			}
		}
	}

	// One allocation per PID: the string itself.
	q := &Query{Name: "join", Sources: []Source{{Name: "S1"}, {Name: "S2", CacheKey: "clicks"}}}
	var sink string
	for name, build := range map[string]func(){
		"ReduceInputPID private": func() { sink = q.ReduceInputPID(0, 360e9, 1<<40, 19) },
		"ReduceInputPID shared":  func() { sink = q.ReduceInputPID(1, 360e9, 1<<40, 19) },
		"ReduceOutputPanePID":    func() { sink = q.ReduceOutputPanePID(1<<40, 19) },
		"ReduceOutputTuplePID":   func() { sink = q.ReduceOutputTuplePID(paneTuple{1 << 40, 255, 9}, 19) },
	} {
		if n := testing.AllocsPerRun(100, build); n != 1 {
			t.Errorf("%s: %v allocations, want 1 (%q)", name, n, sink)
		}
	}
}
