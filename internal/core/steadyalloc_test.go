package core

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"redoop/internal/account"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
)

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops a Put at random: fmt's printers, which a recurrence
// uses to name its jobs and pane files, then miss now and then, so a
// recurrence's allocation count is no longer a fixed number.
var raceEnabled bool

// countMallocs returns the heap allocations fn makes, counted with one
// P and the collector off, so what the runtime allocates for itself
// does not land in the count: a collection's start (a sudog), a thread
// started to run a woken goroutine, or a sync.Pool miss on the P the
// goroutine moved to.
func countMallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyRecurrenceAllocatesForNewPanes: a steady recurrence maps
// one new pane and reads the window's other panes from cache, so what it
// allocates is the new pane's and the window's fixed scratch, the same
// at 10 and at 20 panes per window. A cached pane costs lookups, reads
// and a row of the window's slab; none of them allocates. Checked bare,
// on a private source, and with the ledger, the provenance store and the
// reuse index attached, on a shared one. The query's own functions
// format on the stack, so a count's width (a longer window sums higher)
// shows in none of it.
func TestSteadyRecurrenceAllocatesForNewPanes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const warm, steady = 8, 12
	slide := 10 * simtime.Second
	sum := func(key []byte, values [][]byte, emit mapreduce.Emitter) {
		var total int64
		for _, v := range values {
			n, _ := strconv.ParseInt(string(v), 10, 64)
			total += n
		}
		var buf [20]byte
		emit.Emit(key, strconv.AppendInt(buf[:0], total, 10))
	}
	runMallocs := func(panes int, sidecars bool) uint64 {
		q := internalCountQuery(simtime.Duration(panes)*slide, slide)
		q.Maps[0] = func(_ int64, payload []byte, emit mapreduce.Emitter) { emit.Emit(payload, []byte("1")) }
		q.Reduce, q.Combine, q.Merge, q.NumReducers = sum, sum, sum, 4
		cfg := Config{MR: internalRig(t, 3, 17), Query: q}
		cfg.MR.Workers = 1
		if sidecars {
			q.Sources[0].CacheKey = "words" // makes the query's pane outputs reuse entries
			cfg.Account, cfg.Lineage, cfg.Reuse = account.New(), lineage.New(0), reuse.NewIndex(0)
		}
		eng := mustEngine(t, cfg)
		// The fewest over several steady recurrences: a map or slab that
		// grows now and then lands in some recurrence, not in all. (A
		// map whose keys come and go grows now and then too, when its
		// hash seed happens to crowd a group with deleted slots.)
		least := ^uint64(0)
		fed := 0
		for rec := 0; rec < warm+steady; rec++ {
			for ; int64(fed)*int64(slide) < eng.frames[0].WindowClose(rec); fed++ {
				if err := eng.Ingest(0, internalWords(23, slide, fed, 600, 64)); err != nil {
					t.Fatal(err)
				}
			}
			var res *RecurrenceResult
			var err error
			mallocs := countMallocs(func() { res, err = eng.RunNext() })
			if err != nil {
				t.Fatalf("%d panes, recurrence %d: %v", panes, rec, err)
			}
			if rec >= warm {
				if res.NewPanes != 1 || res.ReusedPanes != panes-1 {
					t.Fatalf("%d panes, recurrence %d: %d new and %d reused panes, want 1 and %d",
						panes, rec, res.NewPanes, res.ReusedPanes, panes-1)
				}
				least = min(least, mallocs)
			}
		}
		return least
	}
	for _, sidecars := range []bool{false, true} {
		short, long := runMallocs(10, sidecars), runMallocs(20, sidecars)
		if short != long {
			t.Errorf("sidecars %v: a steady recurrence allocates %d times over 10 panes and %d over 20", sidecars, short, long)
			continue
		}
		t.Logf("sidecars %v: a steady recurrence allocates %d times", sidecars, short)
	}
}
