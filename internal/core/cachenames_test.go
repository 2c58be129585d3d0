package core

import (
	"slices"
	"testing"

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
	agg := internalCountQuery(win, slide)
	agg.Sources[0].CacheKey = "words"
	join := internalJoinQuery(win, slide)
	join.Sources[1].CacheKey = "clicks"
	mr := internalRig(t, 3, 5)
	ctrl := NewController()
	ea := mustEngine(t, Config{MR: mr, Query: agg, Controller: ctrl})
	ej := mustEngine(t, Config{MR: mr, Query: join, Controller: ctrl})
	for fed := 0; fed < 2; fed++ {
		for _, err := range []error{
			ea.Ingest(0, internalWords(3, slide, fed, 50, 8)),
			ej.Ingest(0, internalKV(4, slide, fed, 50, 8)),
			ej.Ingest(1, internalKV(5, slide, fed, 50, 8)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range []*Engine{ea, ej} {
		if _, err := e.RunNext(); err != nil {
			t.Fatal(err)
		}
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

// TestAggPartRegistrationAllocations pins what registering one
// partition of a new aggregation pane allocates: for its reduce input
// and for its reduce output, the node-local key (the PID is its suffix),
// the registry row and the signature with its done mask — 8 in all. The
// PIDs are built on the stack and the consumer set is the engine's.
func TestAggPartRegistrationAllocations(t *testing.T) {
	eng := mustEngine(t, Config{MR: internalRig(t, 3, 5), Query: internalCountQuery(20*simtime.Second, 10*simtime.Second)})
	rins := make([]cacheRef, eng.query.NumReducers)
	p := 0
	allocs := testing.AllocsPerRun(200, func() {
		p++
		eng.registerAggPart("agg/S1", window.PaneID(p), 0, p%3, 0, nil, nil, cacheMeta{}, cacheMeta{}, rins)
	})
	if allocs != 8 {
		t.Fatalf("registering a new pane's partition allocates %v times, want 8", allocs)
	}
}
