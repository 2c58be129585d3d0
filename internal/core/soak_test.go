package core

import (
	"bytes"
	"runtime"
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

func measureSoak(eng *Engine) soakSize {
	s := soakSize{signatures: len(eng.ctrl.Signatures())}
	for _, n := range eng.mr.Cluster.Nodes() {
		s.entries += len(eng.ctrl.Registry(n.ID).Entries())
	}
	for _, n := range eng.matrix.n {
		s.extents = append(s.extents, int64(n))
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heap = ms.HeapAlloc
	runtime.KeepAlive(eng) // measured with the engine live, also after its last use
	return s
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
		gen      func(slideIdx int) []records.Record
		observed bool
	}{
		{"agg", internalCountQuery(win, slide), func(i int) []records.Record { return padded(internalWords(7, slide, i, 300, 12)) }, false},
		{"join", internalJoinQuery(win, slide), func(i int) []records.Record { return padded(internalKV(7, slide, i, 200, 8)) }, false},
		{"agg-observed", internalCountQuery(win, slide), func(i int) []records.Record { return padded(internalWords(7, slide, i, 300, 12)) }, true},
		{"join-observed", internalJoinQuery(win, slide), func(i int) []records.Record { return padded(internalKV(7, slide, i, 200, 8)) }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{MR: internalRig(t, 3, 9), Query: c.q}
			if c.observed {
				cfg = observed(cfg)
			}
			eng := mustEngine(t, cfg)
			var at1000 soakSize
			fed := 0
			for rec := 0; rec < 2000; rec++ {
				for ; int64(fed)*int64(slide) < eng.Frames()[0].WindowClose(rec); fed++ {
					for src := range c.q.Sources {
						if err := eng.Ingest(src, c.gen(fed)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := eng.RunNext(); err != nil {
					t.Fatalf("recurrence %d: %v", rec, err)
				}
				if rec+1 == 1000 {
					at1000 = measureSoak(eng)
				}
			}
			at2000 := measureSoak(eng)
			t.Logf("at 1000: %+v; at 2000: %+v", at1000, at2000)
			if at1000.signatures == 0 || at1000.entries == 0 {
				t.Fatalf("nothing cached at recurrence 1000: %+v", at1000)
			}
			if at2000.signatures != at1000.signatures {
				t.Errorf("controller signatures %d at recurrence 1000, %d at 2000", at1000.signatures, at2000.signatures)
			}
			if at2000.entries != at1000.entries {
				t.Errorf("registry entries %d at recurrence 1000, %d at 2000", at1000.entries, at2000.entries)
			}
			for d := range at1000.extents {
				if at2000.extents[d] != at1000.extents[d] {
					t.Errorf("status matrix dim %d tracks %d panes at recurrence 1000, %d at 2000", d, at1000.extents[d], at2000.extents[d])
				}
			}
			if lo, hi := at1000.heap-at1000.heap/20, at1000.heap+at1000.heap/20; at2000.heap < lo || at2000.heap > hi {
				t.Errorf("live heap %d B at recurrence 1000, %d B at 2000: outside ±5 %%", at1000.heap, at2000.heap)
			}
		})
	}
}
