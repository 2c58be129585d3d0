package core

import (
	"reflect"
	"testing"

	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Tests of the lookahead: a window's fresh aggregation panes run their
// compute half in one pass over the pool before the ladder commits them.

// freshWindow is an engine at the given width whose first window, nine
// panes, has been fed and flushed but not run, and that window's range.
func freshWindow(t *testing.T, workers int) (eng *Engine, lo, hi window.PaneID) {
	t.Helper()
	win, slide := 90*simtime.Second, 10*simtime.Second
	mr := internalRig(t, 3, 9)
	mr.Workers = workers
	eng = mustEngine(t, Config{MR: mr, Query: internalCountQuery(win, slide)})
	for fed := 0; fed < 9; fed++ {
		if err := eng.Ingest(0, internalWords(61, slide, fed, 200, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.srcs[0].FlushThrough(eng.frames[0].WindowClose(0)); err != nil {
		t.Fatal(err)
	}
	lo, hi = eng.frames[0].WindowRange(0)
	if hi-lo+1 != 9 {
		t.Fatalf("the first window has %d panes, want 9", hi-lo+1)
	}
	return eng, lo, hi
}

// TestLookaheadBorrowsOneOutputPerWorker: a recurrence of nine fresh
// panes at two workers prepares them all in one pass, and a prepared pane
// has handed its map output back, so no more than two map-output arrays
// are ever borrowed at once.
func TestLookaheadBorrowsOneOutputPerWorker(t *testing.T) {
	eng, lo, hi := freshWindow(t, 2)
	res, err := eng.runRecurrence(0, eng.frames[0].At(eng.frames[0].WindowClose(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.NewPanes != int(hi-lo+1) {
		t.Fatalf("%d new panes, want %d", res.NewPanes, hi-lo+1)
	}
	if n := eng.mr.SpareOutputs(); n < 1 || n > 2 {
		t.Fatalf("%d map-output arrays came back to the free list, want one or two: one per worker, each handed back", n)
	}
}

// TestUnpreparablePaneFailsAlike: the fourth of nine fresh panes loses its
// DFS file after the flush. Prepared in line (one worker) or ahead with
// the rest (two), the recurrence fails with the same error, and the three
// panes before it commit the same records.
func TestUnpreparablePaneFailsAlike(t *testing.T) {
	run := func(workers int) ([]commit, error) {
		eng, lo, _ := freshWindow(t, workers)
		var stream []commit
		recordCommits(eng, &stream)
		ins, ok := eng.srcs[0].PaneInputs(lo + 3)
		if !ok || len(ins) != 1 {
			t.Fatalf("pane %d: %d inputs, want one file", lo+3, len(ins))
		}
		if err := eng.mr.DFS.Delete(ins[0].Input.Path); err != nil {
			t.Fatal(err)
		}
		_, err := eng.RunNext()
		for _, c := range stream {
			if c.kind == kindRegistered && c.pane >= lo+3 {
				t.Fatalf("workers=%d: pane %d was registered after the failing pane", workers, c.pane)
			}
		}
		return stream, err
	}
	serial, serialErr := run(1)
	wide, wideErr := run(2)
	if serialErr == nil || wideErr == nil || serialErr.Error() != wideErr.Error() {
		t.Fatalf("errors differ or are missing:\n1 worker:  %v\n2 workers: %v", serialErr, wideErr)
	}
	if kindCounts(serial)[kindRegistered] != 3*2*2 {
		t.Fatalf("%d registrations, want both caches of both partitions of three panes", kindCounts(serial)[kindRegistered])
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("the panes before the failure committed differently:\n1 worker:  %v\n2 workers: %v", serial, wide)
	}
}
