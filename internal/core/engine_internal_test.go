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
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// newCluster is cluster.New for a configuration the test knows is valid.
func newCluster(t testing.TB, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// newDFS is dfs.New for a configuration the test knows is valid.
func newDFS(t testing.TB, cfg dfs.Config) *dfs.DFS {
	t.Helper()
	d, err := dfs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustEngine is NewEngine for a configuration the test knows is valid.
func mustEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func internalCountQuery(win, slide simtime.Duration) *Query {
	sum := func(key []byte, values [][]byte, emit mapreduce.Emitter) {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		emit.Emit(key, []byte(strconv.Itoa(total)))
	}
	return &Query{
		Name:    "agg",
		Sources: []Source{{Name: "S1", Spec: window.NewTimeSpec(win, slide)}},
		Maps: []mapreduce.MapFunc{func(_ int64, payload []byte, emit mapreduce.Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte("1"))
		}},
		Reduce:      sum,
		Combine:     sum,
		Merge:       sum,
		NumReducers: 2,
	}
}

func internalWords(seed int64, slide simtime.Duration, slideIdx, n, vocab int) []records.Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	base := int64(slideIdx) * int64(slide)
	out := make([]records.Record, n)
	for i := range out {
		out[i] = records.Record{
			Ts:   base + rng.Int63n(int64(slide)),
			Data: []byte(fmt.Sprintf("w%02d", rng.Intn(vocab))),
		}
	}
	return out
}

// TestSegmentPhasesKeepTheSortedMark: a proactive pane is several
// segments. Each segment's committed map phase, what a sub-pane reduce
// runs on, keeps the map side's sorted mark; the pane's merge of them,
// what the join's cache build and a whole-pane reduce read, drops it.
func TestSegmentPhasesKeepTheSortedMark(t *testing.T) {
	win, slide := 30*simtime.Second, 10*simtime.Second
	eng := mustEngine(t, Config{MR: internalRig(t, 3, 9), Query: internalCountQuery(win, slide)})
	if err := eng.ForceProactive(3); err != nil {
		t.Fatal(err)
	}
	for fed := 0; fed < 3; fed++ {
		if err := eng.Ingest(0, internalWords(61, slide, fed, 200, 10)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	pp := eng.preparePane(0, res.WindowHi, nil)
	if pp.err != nil || len(pp.preps) < 2 {
		t.Fatalf("pane %d: %d segments (%v), want several", res.WindowHi, len(pp.preps), pp.err)
	}
	for i, prep := range pp.preps {
		mp, err := eng.mr.CommitMapPhase(prep, res.TriggerAt)
		if err != nil {
			t.Fatal(err)
		}
		if !mp.PartsSorted() {
			t.Fatalf("segment %d's map phase is not marked sorted", i)
		}
		mp.Release()
	}
	var stats mapreduce.Stats
	merged, err := eng.commitPaneMapPhase(0, res.WindowHi, res.TriggerAt, eng.preparePane(0, res.WindowHi, nil), &stats)
	if err != nil {
		t.Fatal(err)
	}
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
		if err := hub.Share("k", "s", hubSpec(), 0); err != nil {
			t.Fatal(err)
		}
		q := internalCountQuery(20*simtime.Second, 20*simtime.Second)
		q.Combine, q.Sources[0].CacheKey = nil, "k"
		eng := mustEngine(t, Config{MR: mr, Query: q, Hub: hub})
		for s := 0; s < 2; s++ {
			if err := hub.Ingest("k", internalWords(23, 10*simtime.Second, s, 300, 12)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.srcs[0].FlushThrough(eng.frames[0].WindowClose(0)); err != nil {
			t.Fatal(err)
		}
		gs := mr.Groupers(nil)
		pp := eng.preparePane(0, 0, gs)
		mr.PutGroupers(gs)
		if pp.err != nil || len(pp.ins) != 2 {
			t.Fatalf("workers %d: pane 0 has %d segments (%v), want two", workers, len(pp.ins), pp.err)
		}
		want := make([][]records.Pair, q.NumReducers)
		for _, in := range pp.ins {
			mp, err := mr.RunMapPhase(eng.jobs[0], []mapreduce.Input{in.Input}, 0)
			if err != nil {
				t.Fatal(err)
			}
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

// Expired caches must actually leave the task nodes: run enough
// windows and verify early panes' caches are purged while the current
// window's survive.
func TestExpiredCachesArePurged(t *testing.T) {
	win, slide := 30*simtime.Second, 10*simtime.Second
	q := internalCountQuery(win, slide)
	eng := mustEngine(t, Config{MR: internalRig(t, 3, 9), Query: q})
	fed := 0
	for r := 0; r < 6; r++ {
		for ; fed < 3+r; fed++ {
			if err := eng.Ingest(0, internalWords(61, slide, fed, 200, 10)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatal(err)
		}
	}
	// Pane 0 slid out of every window long ago; its caches must be
	// gone from every node and from the controller.
	for part := 0; part < q.NumReducers; part++ {
		pid := q.ReduceOutputPanePID(0, part)
		if _, ok := eng.ctrl.Lookup(pid, ReduceOutput); ok {
			t.Errorf("pane 0 output signature (part %d) should be purged", part)
		}
		for _, n := range eng.mr.Cluster.Nodes() {
			reg := eng.ctrl.Registry(n.ID)
			if reg.Has(pid, ReduceOutput) {
				t.Errorf("pane 0 output cache still on node %d", n.ID)
			}
		}
	}
	// Recent panes' caches must still exist.
	lo, hi := eng.frames[0].WindowRange(5)
	found := false
	for p := lo; p <= hi; p++ {
		for part := 0; part < q.NumReducers; part++ {
			if _, ok := eng.ctrl.Lookup(q.ReduceOutputPanePID(p, part), ReduceOutput); ok {
				found = true
			}
		}
	}
	if !found {
		t.Error("current window's caches should be retained")
	}
}

// Reduce partitions get their home nodes on the first recurrence that
// reduces them, not before.
func TestHomesAssignedByFirstRecurrence(t *testing.T) {
	win, slide := 30*simtime.Second, 10*simtime.Second
	q := internalCountQuery(win, slide)
	eng := mustEngine(t, Config{MR: internalRig(t, 2, 2), Query: q})
	for s := 0; s < 3; s++ {
		if err := eng.Ingest(0, internalWords(5, slide, s, 100, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if len(eng.sched.homes) != 0 {
		t.Error("no homes before any reduce ran")
	}
	if _, err := eng.RunNext(); err != nil {
		t.Fatal(err)
	}
	if len(eng.sched.homes) == 0 {
		t.Error("homes should be assigned after a recurrence")
	}
}

// Query PID helpers embed scope, source, pane unit, pane and partition
// so that shared and private caches can never collide.
func TestCachePIDNamespaces(t *testing.T) {
	q := internalCountQuery(30*simtime.Second, 10*simtime.Second)
	private := q.ReduceInputPID(0, q.Spec().PaneUnit(), 3, 1)
	q.Sources[0].CacheKey = "clicks"
	shared := q.ReduceInputPID(0, q.Spec().PaneUnit(), 3, 1)
	if private == shared {
		t.Error("shared and private rin PIDs must differ")
	}
	if prefix := q.rinPrefix(0, q.Spec().PaneUnit()); !strings.HasPrefix(shared, prefix) || strings.HasPrefix(private, prefix) {
		t.Errorf("rinPrefix %q must match exactly its own scope's rin PIDs (%q, not %q)", prefix, shared, private)
	}
	if got := q.ReduceOutputPanePID(3, 1); got == private || got == shared {
		t.Error("output PIDs must not collide with input PIDs")
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
