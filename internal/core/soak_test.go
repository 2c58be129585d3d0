package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"redoop/internal/account"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/obs"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
)

// soakSize is what a long-running query must hold flat: the master's
// signatures, the nodes' registry rows, the status matrix's extents and
// the live heap, so that anything kept per recurrence shows.
type soakSize struct {
	signatures, entries int
	extents             []int64 // hi-lo+1 per matrix dimension
	heap                uint64
}

// counts is the size of eng's tables, without the heap.
func counts(eng *Engine) soakSize {
	s := soakSize{signatures: len(eng.ctrl.Signatures())}
	for _, n := range eng.mr.Cluster.Nodes() {
		s.entries += len(eng.ctrl.Registry(n.ID).Entries())
	}
	for _, n := range eng.matrix.n {
		s.extents = append(s.extents, int64(n))
	}
	return s
}

// liveHeap is the heap in use with eng live, after two collections.
func liveHeap(eng *Engine) uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(eng) // measured with the engine live, also after its last use
	return ms.HeapAlloc
}

// padded lengthens every payload to a log line's size, so that the pane
// files and caches a window holds, not map internals settling, are what
// the heap bound is 5 % of.
func padded(recs []records.Record) []records.Record {
	for i := range recs {
		recs[i].Data = append(recs[i].Data, soakPad...)
	}
	return recs
}

var soakPad = bytes.Repeat([]byte{'.'}, 250)

// observed attaches every sidecar to cfg, as the benchmark's observed
// workload does: one observer for the runtime, the DFS and a health
// monitor, a cost ledger, a provenance store and a reuse index, which
// an aggregation publishes into.
func observed(cfg Config) Config {
	o := obs.New()
	cfg.MR.Obs = o
	cfg.MR.DFS.SetObserver(o)
	cfg.Health = health.NewMonitor(health.DefaultConfig())
	cfg.Health.SetObserver(o)
	cfg.Account, cfg.Lineage, cfg.Reuse = account.New(), lineage.New(0), reuse.NewIndex(0)
	if len(cfg.Query.Sources) == 1 {
		cfg.Query.Sources[0].CacheKey = cfg.Query.Sources[0].Name
	}
	return cfg
}

// Flat-size soak: 2 000 recurrences of a tiny aggregation and a tiny
// join at overlap 0.9 (ten panes per window, one new per recurrence),
// bare and with every sidecar attached. Every cache that is registered
// must be purged by exactly the key it was registered under, on the
// master and on every node, or these counts creep; the heap bound
// catches whatever else is kept per recurrence, the sidecars' records
// included. First step of the 10 k-recurrence nightly (ROADMAP,
// "Smaller findings").
func TestSoakStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000 recurrences per query")
	}
	win, slide := 100*simtime.Second, 10*simtime.Second
	for _, c := range []struct {
		name     string
		q        *Query
		gen      func(src, slideIdx int) []records.Record
		observed bool
	}{
		{"agg", CountQuery("agg", win, slide, ""), func(_, i int) []records.Record { return padded(Words(7, slide, i, 300, 12)) }, false},
		{"join", internalJoinQuery(win, slide), func(_, i int) []records.Record { return padded(internalKV(7, slide, i, 200, 8)) }, false},
		{"agg-observed", CountQuery("agg", win, slide, ""), func(_, i int) []records.Record { return padded(Words(7, slide, i, 300, 12)) }, true},
		{"join-observed", internalJoinQuery(win, slide), func(_, i int) []records.Record { return padded(internalKV(7, slide, i, 200, 8)) }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{MR: internalRig(t, 3, 9), Query: c.q}
			if c.observed {
				cfg = observed(cfg)
			}
			eng := MustEngine(t, cfg)
			var at1000 soakSize
			fed := 0
			for n := 1; n <= 2000; n++ {
				Drive(t, eng, &fed, 1, c.gen, nil)
				switch {
				case n == 1000:
					at1000 = counts(eng)
					at1000.heap = liveHeap(eng)
					if at1000.signatures == 0 || at1000.entries == 0 {
						t.Fatalf("nothing cached at recurrence 1000: %+v", at1000)
					}
				case n > 1000 && n%100 == 0:
					// The tables are checked every 100 recurrences, so the
					// first one to grow stops the run where it grew.
					now := counts(eng)
					if now.signatures != at1000.signatures {
						t.Fatalf("controller signatures %d at recurrence 1000, %d at %d", at1000.signatures, now.signatures, n)
					}
					if now.entries != at1000.entries {
						t.Fatalf("registry entries %d at recurrence 1000, %d at %d", at1000.entries, now.entries, n)
					}
					if !slices.Equal(now.extents, at1000.extents) {
						t.Fatalf("status matrix tracks %v panes per dimension at recurrence 1000, %v at %d", at1000.extents, now.extents, n)
					}
				}
			}
			heap := liveHeap(eng)
			t.Logf("at 1000: %+v; live heap at 2000: %d B", at1000, heap)
			if lo, hi := at1000.heap-at1000.heap/20, at1000.heap+at1000.heap/20; heap < lo || heap > hi {
				t.Errorf("live heap %d B at recurrence 1000, %d B at 2000: outside ±5 %%", at1000.heap, heap)
			}
		})
	}
}
