package core

import (
	"slices"
	"testing"

	"redoop/internal/account"
	"redoop/internal/simtime"
)

// TestResidencyJoinsLedger pins the candidate↔ledger join: every
// replacement candidate carries its open residency's recompute cost and
// hit count, the features the eviction policy ranks; candidates come
// ranked; and without a ledger every candidate has the zero vector.
// (A reduce input is read only when a pane's output is rebuilt, so its
// hits stay 0 here.)
func TestResidencyJoinsLedger(t *testing.T) {
	win, slide := 100*simtime.Second, 10*simtime.Second
	for _, l := range []*account.Ledger{account.New(), nil} {
		eng := mustEngine(t, Config{MR: internalRig(t, 3, 17), Query: internalCountQuery(win, slide), Account: l})
		fed := 0
		for rec := 0; rec < 12; rec++ {
			for ; int64(fed)*int64(slide) < eng.frames[0].WindowClose(rec); fed++ {
				if err := eng.Ingest(0, internalWords(19, slide, fed, 40, 8)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.RunNext(); err != nil {
				t.Fatalf("recurrence %d: %v", rec, err)
			}
		}
		cands := 0
		for _, m := range eng.managers {
			ranked := eng.victimsOn(m.Registry)
			if !slices.IsSortedFunc(ranked, account.CompareVictims) {
				t.Errorf("node %d: candidates not in policy order", m.Registry.NodeID())
			}
			for _, c := range ranked {
				f, ok := l.Residency(c.PID, int(ReduceInput))
				if ok != (l != nil) || (c.RecomputeNS > 0) != ok || c.RecomputeNS != f.RecomputeNS || c.Hits != f.Hits {
					t.Errorf("%s: features %d/%d, residency %+v (open %v)", c.PID, c.RecomputeNS, c.Hits, f, ok)
				}
				cands++
			}
		}
		if cands == 0 {
			t.Errorf("ledger %v: no replacement candidates; the join check is vacuous", l != nil)
		}
	}
}

// TestNewEngineRefusesJoinDiskLimit: a join's reduce-input caches must
// stay resident (the oracle pins them), so no replacement tier can bind
// its disk bytes; NewEngine refuses the limit instead of running the
// join unbounded. A single-source query takes it, and a join without
// one is built as before.
func TestNewEngineRefusesJoinDiskLimit(t *testing.T) {
	win, slide := 100*simtime.Second, 10*simtime.Second
	if _, err := NewEngine(Config{MR: internalRig(t, 3, 17), Query: internalJoinQuery(win, slide), CacheDiskLimit: 1 << 20}); err == nil {
		t.Fatal("a join with a disk limit was built")
	}
	mustEngine(t, Config{MR: internalRig(t, 3, 17), Query: internalJoinQuery(win, slide)})
	mustEngine(t, Config{MR: internalRig(t, 3, 17), Query: internalCountQuery(win, slide), CacheDiskLimit: 1 << 20})
}
