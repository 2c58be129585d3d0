package core

import (
	"runtime"
	"testing"

	"redoop/internal/account"
	"redoop/internal/lineage"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
)

// TestCommitFoldsAllocatePerRecurrence: with the cost ledger, the
// provenance store and the reuse index attached, the commit folds of a
// steady recurrence allocate the same at 4 and at 20 reducers. A
// registration records fixed-size facts keyed by value — a derivation,
// a residency, an index entry — and makes no ID, digest string or heap
// record of its own, so nothing the folds allocate grows with the
// partitions of a pane.
func TestCommitFoldsAllocatePerRecurrence(t *testing.T) {
	const warm, steady = 20, 6
	win, slide := 40*simtime.Second, 10*simtime.Second
	foldMallocs := func(reducers int) uint64 {
		q := internalCountQuery(win, slide)
		q.NumReducers = reducers
		q.Sources[0].CacheKey = "words" // makes the query's pane outputs reuse entries
		mr := internalRig(t, 3, 17)
		mr.Workers = 1
		eng := mustEngine(t, Config{MR: mr, Query: q, Account: account.New(),
			Lineage: lineage.New(0), Reuse: reuse.NewIndex(0)})
		if len(eng.folds) != 3 {
			t.Fatalf("%d folds attached, want the ledger's, the store's and the index's", len(eng.folds))
		}
		// Each commit's folds run between two reads of the allocator's
		// count, during the measured recurrences only.
		var (
			measuring     bool
			total         uint64
			before, after runtime.MemStats
			folds         = eng.folds
		)
		eng.folds = []func(*commit){func(c *commit) {
			if measuring {
				runtime.ReadMemStats(&before)
			}
			for _, f := range folds {
				f(c)
			}
			if measuring {
				runtime.ReadMemStats(&after)
				total += after.Mallocs - before.Mallocs
			}
		}}
		// The fewest over several steady recurrences: a map or slab that
		// grows now and then lands in some recurrence, not in all.
		least := ^uint64(0)
		fed := 0
		for rec := 0; rec < warm+steady; rec++ {
			measuring, total = rec >= warm, 0
			for ; int64(fed)*int64(slide) < eng.frames[0].WindowClose(rec); fed++ {
				if err := eng.Ingest(0, internalWords(19, slide, fed, 600, 64)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.RunNext(); err != nil {
				t.Fatalf("%d reducers, recurrence %d: %v", reducers, rec, err)
			}
			if measuring {
				least = min(least, total)
			}
		}
		return least
	}
	few, many := foldMallocs(4), foldMallocs(20)
	if few != many {
		t.Fatalf("a steady recurrence's commit folds allocate %d times at 4 reducers and %d at 20", few, many)
	}
	t.Logf("a steady recurrence's commit folds allocate %d times", few)
}
