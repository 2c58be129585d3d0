package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/cluster"
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

func internalRig(workers int, seed int64) *mapreduce.Engine {
	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i
	}
	cl := cluster.MustNew(cluster.Config{Workers: workers, MapSlots: 4, ReduceSlots: 2})
	d := dfs.MustNew(dfs.Config{BlockSize: 256 << 10, Replication: 2, Nodes: ids, Seed: seed})
	return mapreduce.MustNew(cl, d, iocost.Default())
}

func internalCountQuery(win, slide simtime.Duration) *Query {
	sum := func(key []byte, values [][]byte, emit mapreduce.Emitter) {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		emit(key, []byte(strconv.Itoa(total)))
	}
	return &Query{
		Name:    "agg",
		Sources: []Source{{Name: "S1", Spec: window.NewTimeSpec(win, slide)}},
		Maps: []mapreduce.MapFunc{func(_ int64, payload []byte, emit mapreduce.Emitter) {
			emit(append([]byte(nil), payload...), []byte("1"))
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

// Expired caches must actually leave the task nodes: run enough
// windows and verify early panes' caches are purged while the current
// window's survive.
func TestExpiredCachesArePurged(t *testing.T) {
	win, slide := 30*simtime.Second, 10*simtime.Second
	q := internalCountQuery(win, slide)
	eng := MustNewEngine(Config{MR: internalRig(3, 9), Query: q})
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
		pid := q.routPanePID(0, part)
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
	lo, hi := q.Spec().WindowRange(5)
	found := false
	for p := lo; p <= hi; p++ {
		for part := 0; part < q.NumReducers; part++ {
			if _, ok := eng.ctrl.Lookup(q.routPanePID(p, part), ReduceOutput); ok {
				found = true
			}
		}
	}
	if !found {
		t.Error("current window's caches should be retained")
	}
}

// The paper's task lists must drain: after a recurrence completes, no
// stale map or reduce entries remain queued.
func TestTaskListsDrainAfterRecurrence(t *testing.T) {
	win, slide := 30*simtime.Second, 10*simtime.Second
	q := internalCountQuery(win, slide)
	eng := MustNewEngine(Config{MR: internalRig(2, 2), Query: q})
	for s := 0; s < 3; s++ {
		if err := eng.Ingest(0, internalWords(5, slide, s, 100, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunNext(); err != nil {
		t.Fatal(err)
	}
	if n := eng.sched.MapTasks.Len(); n != 0 {
		t.Errorf("map task list should drain, has %d", n)
	}
	if n := eng.sched.ReduceTasks.Len(); n != 0 {
		t.Errorf("reduce task list should drain, has %d", n)
	}
}

// Query PID helpers embed scope, source, pane unit, pane and partition
// so that shared and private caches can never collide.
func TestCachePIDNamespaces(t *testing.T) {
	q := internalCountQuery(30*simtime.Second, 10*simtime.Second)
	private := q.rinPID(0, q.Spec().PaneUnit(), 3, 1)
	q.Sources[0].CacheKey = "clicks"
	shared := q.rinPID(0, q.Spec().PaneUnit(), 3, 1)
	if private == shared {
		t.Error("shared and private rin PIDs must differ")
	}
	if prefix := q.rinPrefix(0, q.Spec().PaneUnit()); !strings.HasPrefix(shared, prefix) || strings.HasPrefix(private, prefix) {
		t.Errorf("rinPrefix %q must match exactly its own scope's rin PIDs (%q, not %q)", prefix, shared, private)
	}
	if got := q.routPanePID(3, 1); got == private || got == shared {
		t.Error("output PIDs must not collide with input PIDs")
	}
	if q.routPairPID(1, 2, 0) == q.routPairPID(2, 1, 0) {
		t.Error("pair PIDs must be order-sensitive")
	}
}
