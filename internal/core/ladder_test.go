package core

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redoop/internal/account"
	"redoop/internal/colfmt"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

var updateLadder = flag.Bool("update-ladder", false, "rewrite testdata/ladder.golden from the current code")

// Tests of the §5 recovery ladder rung by rung: every rung an aggregation
// pane, a join source pane or a join tuple can take, pinned to the
// recurrence result it produces.

const ladderSlide = 10 * simtime.Second

// dropPID removes a cache's bytes from every node, leaving its
// signature for the next lookup to find lost.
func dropPID(eng *Engine, pid string, typ CacheType) {
	for _, n := range eng.mr.Cluster.Nodes() {
		n.DeleteLocal(nodeKey(pid, typ))
	}
}

// dropType removes one cache type for pane p across all partitions and
// nodes.
func dropType(eng *Engine, p window.PaneID, typ CacheType) {
	for part := 0; part < eng.query.NumReducers; part++ {
		pid := eng.query.ReduceOutputPanePID(p, part)
		if typ == ReduceInput {
			pid = eng.query.ReduceInputPID(0, eng.query.Spec().PaneUnit(), p, part)
		}
		dropPID(eng, pid, typ)
	}
}

// TestReadyBitRollback: the controller's ready bit must roll back 2→1
// when a cache is found lost (§5).
func TestReadyBitRollback(t *testing.T) {
	eng := MustEngine(t, Config{MR: internalRig(t, 3, 17), Query: CountQuery("agg", 3*ladderSlide, ladderSlide, "")})
	Drive(t, eng, new(int), 1, func(_, s int) []records.Record { return Words(19, ladderSlide, s, 300, 8) }, nil)
	pid := eng.query.ReduceOutputPanePID(1, 0)
	sig, ok := eng.ctrl.Lookup(pid, ReduceOutput)
	if !ok || sig.Ready != CacheAvailable {
		t.Fatalf("pane 1 output cache should be registered: %+v ok=%v", sig, ok)
	}
	eng.mr.Cluster.Node(sig.NID).DeleteLocal(nodeKey(pid, ReduceOutput)) // lose just that one cache file
	if _, found, _ := eng.lookupCache([]byte(pid), ReduceOutput); found {
		t.Fatal("lookup should detect the loss")
	}
	if sig, _ = eng.ctrl.Lookup(pid, ReduceOutput); sig.Ready != HDFSAvailable {
		t.Errorf("ready bit should roll back to HDFS-available, got %v", sig.Ready)
	}
}

// ladderAgg runs CountQuery's first recurrence on a workers-wide
// engine (setup sees it first), calls between, feeds the next slide and
// returns the second recurrence.
func ladderAgg(t *testing.T, workers int, setup func(*Engine), between func(*Engine)) *RecurrenceResult {
	t.Helper()
	mr := internalRig(t, 3, 17)
	mr.Workers = workers
	eng := MustEngine(t, Config{MR: mr, Query: CountQuery("agg", 3*ladderSlide, ladderSlide, "")})
	if setup != nil {
		setup(eng)
	}
	res, err := ladderDriveErr(t, eng, between, func(_, s int) []records.Record { return Words(19, ladderSlide, s, 300, 8) })
	check(t, err)
	return res
}

// ladderJoin is ladderAgg for internalJoinQuery.
func ladderJoin(t *testing.T, workers int, cfg Config, between func(*Engine)) *RecurrenceResult {
	t.Helper()
	cfg.MR = internalRig(t, 3, 17)
	cfg.MR.Workers = workers
	cfg.Query = internalJoinQuery(3*ladderSlide, ladderSlide)
	res, err := ladderDriveErr(t, MustEngine(t, cfg), between,
		func(src, s int) []records.Record { return internalKV(int64(23+src), ladderSlide, s, 120, 6) })
	check(t, err)
	return res
}

// ladderDriveErr runs two recurrences, calling between before the
// second, and returns the second's result or error.
func ladderDriveErr(t *testing.T, eng *Engine, between func(*Engine), gen func(src, slideIdx int) []records.Record) (*RecurrenceResult, error) {
	t.Helper()
	fed := 0
	Drive(t, eng, &fed, 1, gen, nil)
	Feed(t, eng, &fed, gen)
	if between != nil {
		between(eng)
	}
	return eng.RunNext()
}

// ladderShared runs two aggregations over one hub-shared stream with a
// reuse index, in window-close order (a tie goes to the first), and
// returns the second query's recurrence 1 and the index's counters.
func ladderShared(t *testing.T, workers int, second *Query) (*RecurrenceResult, reuse.Stats) {
	t.Helper()
	mr := internalRig(t, 3, 17)
	mr.Workers = workers
	ctrl, hub, idx, acct := NewController(), NewSourceHub(mr.DFS, mr.DFS.BlockSize()), reuse.NewIndex(0), account.New()
	first := CountQuery("agg", 3*ladderSlide, ladderSlide, "")
	first.Name = "fine"
	qs := []*Query{first, second}
	for _, q := range qs {
		q.Sources[0].CacheKey = "words"
		q.Maps[0], q.Reduce, q.Combine, q.Merge = first.Maps[0], first.Reduce, first.Combine, first.Merge
	}
	check(t, hub.Share("words", "words", first.Spec(), 0))
	var engs []*Engine
	for _, q := range qs {
		engs = append(engs, MustEngine(t, Config{MR: mr, Query: q, Controller: ctrl, Hub: hub, Reuse: idx, Account: acct}))
	}
	fed := 0
	for {
		i := 0
		if engs[1].frames[0].WindowClose(engs[1].next) < engs[0].frames[0].WindowClose(engs[0].next) {
			i = 1
		}
		for ; int64(fed)*int64(ladderSlide) < engs[i].frames[0].WindowClose(engs[i].next); fed++ {
			check(t, hub.Ingest("words", Words(19, ladderSlide, fed, 300, 8)))
		}
		res, err := engs[i].RunNext()
		if err != nil {
			t.Fatalf("%s: %v", qs[i].Name, err)
		}
		if i == 1 && res.Recurrence == 1 {
			return res, idx.Stats()
		}
	}
}

// ladderScenarios are TestLadderGolden's rows, one per rung.
var ladderScenarios = []struct {
	name string
	run  func(t *testing.T, workers int) *RecurrenceResult
}{
	{"agg steady", func(t *testing.T, w int) *RecurrenceResult { return ladderAgg(t, w, nil, nil) }},
	{"agg output lost, rebuild", func(t *testing.T, w int) *RecurrenceResult {
		return ladderAgg(t, w, nil, func(e *Engine) { dropType(e, 1, ReduceOutput) })
	}},
	{"agg output and input lost, re-map", func(t *testing.T, w int) *RecurrenceResult {
		return ladderAgg(t, w, nil, func(e *Engine) { dropType(e, 1, ReduceOutput); dropType(e, 1, ReduceInput) })
	}},
	{"agg proactive re-map", func(t *testing.T, w int) *RecurrenceResult {
		return ladderAgg(t, w, func(e *Engine) {
			check(t, e.ForceProactive(3))
		}, func(e *Engine) { dropType(e, 1, ReduceOutput); dropType(e, 1, ReduceInput) })
	}},
	{"agg exact reuse", func(t *testing.T, w int) *RecurrenceResult {
		q := CountQuery("agg", 3*ladderSlide, ladderSlide, "")
		q.Name = "twin"
		res, st := ladderShared(t, w, q)
		if st.ExactHits == 0 {
			t.Fatal("scenario is vacuous: no exact hit")
		}
		return res
	}},
	{"agg subsume reuse", func(t *testing.T, w int) *RecurrenceResult {
		q := CountQuery("agg", 2*ladderSlide, 2*ladderSlide, "")
		q.Name = "roll"
		res, st := ladderShared(t, w, q)
		if st.SubsumHits == 0 {
			t.Fatal("scenario is vacuous: no subsumption hit")
		}
		return res
	}},
	{"join steady", func(t *testing.T, w int) *RecurrenceResult { return ladderJoin(t, w, Config{}, nil) }},
	{"join pane input lost", func(t *testing.T, w int) *RecurrenceResult {
		return ladderJoin(t, w, Config{}, func(e *Engine) {
			for part := 0; part < e.query.NumReducers; part++ {
				dropPID(e, e.query.ReduceInputPID(0, e.frames[0].Pane, 1, part), ReduceInput)
			}
		})
	}},
	{"join tuple output lost", func(t *testing.T, w int) *RecurrenceResult {
		return ladderJoin(t, w, Config{}, func(e *Engine) {
			for part := 0; part < e.query.NumReducers; part++ {
				dropPID(e, e.query.ReduceOutputTuplePID(paneTuple{1, 2}, part), ReduceOutput)
			}
		})
	}},
	{"join DisableCacheReuse", func(t *testing.T, w int) *RecurrenceResult {
		return ladderJoin(t, w, Config{DisableCacheReuse: true}, nil)
	}},
}

// TestLadderGolden pins, per rung and at one and four executor workers,
// the pane and tuple counts, the recoveries, every Stats field, the
// response time and an FNV-64a of the output's encoding.
// go test ./internal/core -run TestLadderGolden -update-ladder rewrites it.
func TestLadderGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range ladderScenarios {
		for _, workers := range []int{1, 4} {
			res := sc.run(t, workers)
			h := fnv.New64a()
			h.Write(records.EncodePairs(res.Output))
			fmt.Fprintf(&b, "%s w%d: panes %d/%d pairs %d/%d recoveries %d response %d fnv %016x stats %+v\n",
				sc.name, workers, res.NewPanes, res.ReusedPanes, res.NewPairs, res.ReusedPairs,
				res.CacheRecoveries, int64(res.ResponseTime), h.Sum64(), res.Stats)
		}
	}
	path := filepath.Join("testdata", "ladder.golden")
	if *updateLadder {
		check(t, os.MkdirAll("testdata", 0o755))
		check(t, os.WriteFile(path, []byte(b.String()), 0o644))
	}
	want, err := os.ReadFile(path)
	check(t, err)
	if got := b.String(); got != string(want) {
		t.Errorf("ladder results moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRebuildRungCorruptInputFailsTheRecurrence: a pane whose outputs
// were lost and whose cached inputs are damaged fails the recurrence on
// the rebuild rung with colfmt.ErrCorrupt, the lowest damaged
// partition's error whichever worker met which first, and registers no
// output of the pane: the rung reads and validates every partition's
// input before it registers any partition's output.
func TestRebuildRungCorruptInputFailsTheRecurrence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, order := range [][2]string{{"checksum", "magic"}, {"magic", "checksum"}} {
			mr := internalRig(t, 3, 17)
			mr.Workers = workers
			q := CountQuery("agg", 3*ladderSlide, ladderSlide, "")
			q.NumReducers = 4
			eng := MustEngine(t, Config{MR: mr, Query: q})
			gen := func(_, s int) []records.Record { return Words(19, ladderSlide, s, 300, 40) }
			// Pane 1 is in both windows: lose its outputs and damage its
			// inputs in partitions 1 and 3 before the second.
			_, err := ladderDriveErr(t, eng, func(e *Engine) {
				dropType(e, 1, ReduceOutput)
				for i, part := range []int{1, 3} {
					pid := q.ReduceInputPID(0, e.frames[0].Pane, 1, part)
					sig, ok := e.ctrl.Lookup(pid, ReduceInput)
					if !ok {
						t.Fatalf("no input cache %s", pid)
					}
					data, ok := e.ctrl.Registry(sig.NID).Get(pid, ReduceInput)
					if !ok || len(data) == 0 {
						t.Fatalf("input cache %s is empty", pid)
					}
					Damages[order[i]](data)
				}
			}, gen)
			if !errors.Is(err, colfmt.ErrCorrupt) || !strings.Contains(err.Error(), order[0]) {
				t.Fatalf("%d workers, partition 1 damaged in its %s, 3 in its %s: %v", workers, order[0], order[1], err)
			}
			for part := 0; part < q.NumReducers; part++ {
				for _, n := range mr.Cluster.Nodes() {
					if n.HasLocal(nodeKey(q.ReduceOutputPanePID(1, part), ReduceOutput)) {
						t.Fatalf("%d workers: pane 1's output of partition %d was registered on node %d", workers, part, n.ID)
					}
				}
			}
		}
	}
}
