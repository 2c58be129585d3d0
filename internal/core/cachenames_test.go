package core

import (
	"slices"
	"strings"
	"testing"

	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// nodeKey is the node-local key a cache's bytes are stored under.
func nodeKey(pid string, typ CacheType) string {
	key, _ := cacheKey([]byte(pid), typ)
	return key
}

// TestCacheNamesPinned: a cache's node-local key is its stage's
// directory and its PID, and the registry names it by that PID. The
// names are pinned as the engine has always written them, for a private
// and a shared source of an aggregation and of a join, because fault
// injection (Cluster.DropLocal) and the figures' cache-loss scan find
// caches by the "cache/" prefix alone.
func TestCacheNamesPinned(t *testing.T) {
	win, slide := 20*simtime.Second, 10*simtime.Second
	agg := CountQuery("agg", win, slide, "")
	agg.Sources[0].CacheKey = "words"
	join := internalJoinQuery(win, slide)
	join.Sources[1].CacheKey = "clicks"
	mr := internalRig(t, 3, 5)
	ctrl := NewController()
	ea := MustEngine(t, Config{MR: mr, Query: agg, Controller: ctrl})
	ej := MustEngine(t, Config{MR: mr, Query: join, Controller: ctrl})
	for fed := 0; fed < 2; fed++ {
		for _, err := range []error{
			ea.Ingest(0, Words(3, slide, fed, 50, 8)),
			ej.Ingest(0, internalKV(4, slide, fed, 50, 8)),
			ej.Ingest(1, internalKV(5, slide, fed, 50, 8)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range []*Engine{ea, ej} {
		_, err := e.RunNext()
		check(t, err)
	}
	// Pane 0 has retired; pane 1's caches stay.
	want := []string{
		"cache/rin/query/join/S1/u10000000000/P1/r0",
		"cache/rin/query/join/S1/u10000000000/P1/r1",
		"cache/rin/shared/clicks/S2/u10000000000/P1/r0",
		"cache/rin/shared/clicks/S2/u10000000000/P1/r1",
		"cache/rin/shared/words/S1/u10000000000/P1/r0",
		"cache/rin/shared/words/S1/u10000000000/P1/r1",
		"cache/rout/query/agg/P1/r0",
		"cache/rout/query/agg/P1/r1",
		"cache/rout/query/join/P1_1/r0",
		"cache/rout/query/join/P1_1/r1",
	}
	dir := map[CacheType]string{ReduceInput: "cache/rin/", ReduceOutput: "cache/rout/"}
	var keys []string
	for _, n := range mr.Cluster.Nodes() {
		local := n.LocalKeys("cache/")
		keys = append(keys, local...)
		reg := ctrl.Registry(n.ID)
		entries := reg.Entries()
		if len(entries) != len(local) {
			t.Errorf("node %d: %d registry rows for %d local caches", n.ID, len(entries), len(local))
		}
		for _, en := range entries {
			if !slices.Contains(local, dir[en.Type]+en.PID) {
				t.Errorf("node %d: row %q (%v) has no local key %q among %q", n.ID, en.PID, en.Type, dir[en.Type]+en.PID, local)
			}
			if _, ok := reg.Get(en.PID, en.Type); !ok {
				t.Errorf("node %d: Get(%q, %v) finds nothing", n.ID, en.PID, en.Type)
			}
		}
	}
	slices.Sort(keys)
	if !slices.Equal(keys, want) {
		t.Fatalf("local cache keys\n%q\nwant\n%q", keys, want)
	}
	dropped := 0
	for _, n := range mr.Cluster.Nodes() {
		dropped += mr.Cluster.DropLocal(n.ID, "cache/")
		for _, en := range ctrl.Registry(n.ID).Entries() {
			if ctrl.Registry(n.ID).Has(en.PID, en.Type) {
				t.Errorf("node %d: %q (%v) survives DropLocal", n.ID, en.PID, en.Type)
			}
		}
	}
	if dropped != len(want) {
		t.Errorf("DropLocal dropped %d caches, want %d", dropped, len(want))
	}
}

// setAllocs is what registering one set of caches allocates, on average
// over 200 sets, in an engine of query q at R reducers; rins is the
// window's row of reduce inputs an aggregation pane registers into. The
// sets name eight panes in turn, so the registry's and the controller's
// maps stop growing after the first eight (a new key pays a table's
// growth now and then, at any R) and what is counted is the sets'.
func setAllocs(t *testing.T, q *Query, R int, register func(eng *Engine, p window.PaneID, rins []cacheRef)) float64 {
	q.NumReducers = R
	eng := MustEngine(t, Config{MR: internalRig(t, 3, 5), Query: q})
	rins, p := make([]cacheRef, R), 0
	return testing.AllocsPerRun(200, func() {
		p++
		register(eng, window.PaneID(p%8), rins)
	})
}

// setRegistrar registers one set of caches of pane p: rins is the
// window's row of reduce inputs an aggregation pane registers into.
type setRegistrar struct {
	name     string
	q        func() *Query
	register func(eng *Engine, p window.PaneID, rins []cacheRef)
}

// checkSetAllocs pins what registering each set allocates: the set's
// record array (registry rows and signatures with their inline done
// masks) and its one string of keys (each PID a key's suffix), 2,
// whether the query has 4 reducers or 20. The keys are built in the
// engine's scratch and the consumer sets are the engine's.
func checkSetAllocs(t *testing.T, sets []setRegistrar) {
	t.Helper()
	for _, set := range sets {
		small, large := setAllocs(t, set.q(), 4, set.register), setAllocs(t, set.q(), 20, set.register)
		if small != 2 || large != 2 {
			t.Errorf("registering a %s's caches allocates %v times at 4 reducers and %v at 20, want 2", set.name, small, large)
		}
	}
}

// TestAggPartRegistrationAllocations: registering the partitions of a
// new aggregation pane, its reduce inputs and outputs as one set
// (registerAggPart, as buildAggPane calls it), allocates 2 per pane at
// any reducer count.
func TestAggPartRegistrationAllocations(t *testing.T) {
	data := []byte("segment")
	checkSetAllocs(t, []setRegistrar{
		{"aggregation pane", func() *Query { return CountQuery("agg", 20*simtime.Second, 10*simtime.Second, "") }, func(eng *Engine, p window.PaneID, rins []cacheRef) {
			set := eng.paneSet(0, paneTuple{p}, true, true)
			for part := range rins {
				eng.registerAggPart("agg/S1", p, part, part%3, 0, data, data, cacheMeta{}, cacheMeta{}, rins, &set)
			}
		}},
	})
}

// TestJoinTupleRegistrationAllocations: registering a join tuple's
// outputs as one set (registerCache, as joinTupleGroup calls it), and a
// join source pane's reduce inputs as one set (as buildJoinInputs calls
// it), each allocates 2 per set at any reducer count; the output
// segments are the reducers'.
func TestJoinTupleRegistrationAllocations(t *testing.T) {
	data := []byte("tuple output")
	join := func() *Query { return internalJoinQuery(20*simtime.Second, 10*simtime.Second) }
	checkSetAllocs(t, []setRegistrar{
		{"join source pane", join, func(eng *Engine, p window.PaneID, rins []cacheRef) {
			set := eng.paneSet(1, paneTuple{p}, true, false)
			for part := range eng.query.NumReducers {
				eng.registerCache(&set.rin[part], part%3, 0, data, cacheMeta{src: 1, pane: p, part: part, users: eng.rinUsers(1)})
			}
		}},
		{"join tuple", join, func(eng *Engine, p window.PaneID, rins []cacheRef) {
			tuple := paneTuple{p, p + 1}
			set := eng.paneSet(0, tuple, false, true)
			for part := range eng.query.NumReducers {
				eng.registerCache(&set.rout[part], part%3, 0, data, cacheMeta{pane: p, part: part})
			}
		}},
	})
}

// TestCacheSetSiblingsSurviveLoss: a new pane's caches share their
// bytes' buffer and their records' array, so losing one must disturb no
// sibling. One output, or an input and an output, of an aggregation pane
// are deleted from their node (as Figure 9's cache loss does) and the
// ladder rebuilds them, by the rebuild rung or by the map rung: every
// view of the pane's caches taken before stays byte-identical, and what
// the pane's caches hold afterwards is what they held. Once the pane has
// left every window, the purge leaves no row and no byte of it.
func TestCacheSetSiblingsSurviveLoss(t *testing.T) {
	const slide = 10 * simtime.Second
	type cache struct {
		typ  CacheType
		part int
	}
	for _, tc := range []struct {
		name string
		lose []cache
	}{
		{"one output", []cache{{ReduceOutput, 1}}},
		{"an input and an output", []cache{{ReduceInput, 2}, {ReduceOutput, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := CountQuery("agg", 3*slide, slide, "")
			q.NumReducers = 4
			eng := MustEngine(t, Config{MR: internalRig(t, 3, 17), Query: q})
			fed := 0
			run := func() *RecurrenceResult {
				return Drive(t, eng, &fed, 1, func(_, s int) []records.Record { return Words(29, slide, s, 300, 40) }, nil)[0]
			}
			const pane = window.PaneID(2) // in windows 0 to 2
			keyOf := func(c cache) string {
				if c.typ == ReduceInput {
					return nodeKey(q.ReduceInputPID(0, eng.frames[0].Pane, pane, c.part), ReduceInput)
				}
				return nodeKey(q.ReduceOutputPanePID(pane, c.part), ReduceOutput)
			}
			stored := func(c cache) (node int, data []byte) {
				for _, n := range eng.mr.Cluster.Nodes() {
					if data, ok := n.GetLocal(keyOf(c)); ok {
						return n.ID, data
					}
				}
				return -1, nil
			}
			var all []cache
			for part := range q.NumReducers {
				all = append(all, cache{ReduceInput, part}, cache{ReduceOutput, part})
			}
			run()
			views, copies := map[cache][]byte{}, map[cache][]byte{}
			for _, c := range all {
				node, data := stored(c)
				if node < 0 {
					t.Fatalf("pane %d's %v cache of partition %d is on no node", pane, c.typ, c.part)
				}
				views[c], copies[c] = data, slices.Clone(data)
			}
			for _, c := range tc.lose {
				node, _ := stored(c)
				eng.mr.Cluster.Node(node).DeleteLocal(keyOf(c))
			}
			if res := run(); res.CacheRecoveries == 0 {
				t.Fatal("no cache recovered after the loss")
			}
			for _, c := range all {
				_, now := stored(c)
				if !slices.Equal(views[c], copies[c]) || !slices.Equal(now, copies[c]) {
					t.Errorf("%v cache of partition %d: view before %q, now %q, want %q", c.typ, c.part, views[c], now, copies[c])
				}
			}
			run() // pane 2 leaves the windows and its caches are purged
			for _, c := range all {
				if node, _ := stored(c); node >= 0 {
					t.Errorf("%v cache of partition %d outlives the purge on node %d", c.typ, c.part, node)
				}
			}
			for _, n := range eng.mr.Cluster.Nodes() {
				for _, en := range eng.ctrl.Registry(n.ID).Entries() {
					if strings.Contains(en.PID, "/P2/") {
						t.Errorf("node %d keeps the row of %q (%v) past the purge", n.ID, en.PID, en.Type)
					}
				}
			}
		})
	}
}
