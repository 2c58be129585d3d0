package reuse

import (
	"reflect"
	"strings"
	"testing"
)

func publishPane(x *Index, query string, unit, pane int64, parts int, bytes int64) {
	for part := 0; part < parts; part++ {
		x.Publish(Entry{
			OpFP: "fp", Unit: unit, Pane: pane, Part: part,
			Query: query, PID: pidFor(query, unit, pane, part), Type: 1,
			Node: part % 3, Bytes: bytes, RecomputeNS: 1000,
		})
	}
}

func pidFor(query string, unit, pane int64, part int) string {
	return query + "/" + string(rune('0'+unit)) + "/" + string(rune('0'+pane)) + "/" + string(rune('0'+part))
}

func TestExactProbe(t *testing.T) {
	x := NewIndex(0)
	publishPane(x, "a", 2, 5, 4, 100)
	if _, ok := x.ProbeExact("fp", 2, 5, 4, "a"); ok {
		t.Fatal("self-probe must miss")
	}
	ents, ok := x.ProbeExact("fp", 2, 5, 4, "b")
	if !ok {
		t.Fatal("want exact hit")
	}
	for part, e := range ents {
		if e.Part != part || e.Query != "a" || e.Pane != 5 || e.Unit != 2 {
			t.Fatalf("part %d: wrong entry %+v", part, e)
		}
	}
	if _, ok := x.ProbeExact("fp", 2, 6, 4, "b"); ok {
		t.Fatal("unpublished pane must miss")
	}
	if _, ok := x.ProbeExact("other", 2, 5, 4, "b"); ok {
		t.Fatal("foreign fingerprint must miss")
	}
	// A single missing partition fails the whole probe.
	x.DropPID(pidFor("a", 2, 5, 2), 1)
	if _, ok := x.ProbeExact("fp", 2, 5, 4, "b"); ok {
		t.Fatal("partial pane must miss")
	}
	s := x.Stats()
	if s.ExactHits != 1 || s.Dropped != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSubsumeProbe(t *testing.T) {
	x := NewIndex(0)
	// Producer at unit 2: consumer unit 6 pane 1 covers producer panes 3,4,5.
	for p := int64(3); p <= 5; p++ {
		publishPane(x, "a", 2, p, 2, 10)
	}
	rows, u, ok := x.ProbeSubsume("fp", 6, 1, 2, "b")
	if !ok || u != 2 {
		t.Fatalf("want subsume hit at unit 2, got ok=%v u=%d", ok, u)
	}
	for part, row := range rows {
		if len(row) != 3 {
			t.Fatalf("part %d: want 3 finer panes, got %d", part, len(row))
		}
		for i, e := range row {
			if e.Pane != 3+int64(i) || e.Part != part {
				t.Fatalf("part %d slot %d: wrong entry %+v", part, i, e)
			}
		}
	}
	// Coarsest qualifying unit wins: publish unit 3 covering panes 2,3
	// of the same span — fewer merge inputs than unit 2's three.
	publishPane(x, "c", 3, 2, 2, 10)
	publishPane(x, "c", 3, 3, 2, 10)
	if _, u, ok = x.ProbeSubsume("fp", 6, 1, 2, "b"); !ok || u != 3 {
		t.Fatalf("want coarsest unit 3, got ok=%v u=%d", ok, u)
	}
	// Units that do not divide the prober's never qualify.
	if _, _, ok := x.ProbeSubsume("fp", 5, 1, 2, "b"); ok {
		t.Fatal("unit 5 has no divisor units published (2 and 3 do not divide 5 into present panes)")
	}
	// The prober's own entries cannot subsume for it.
	if _, u, ok := x.ProbeSubsume("fp", 6, 1, 2, "c"); !ok || u != 2 {
		t.Fatalf("self entries excluded: want fallback to unit 2, got ok=%v u=%d", ok, u)
	}
}

func TestPublishRefreshReplacesEntry(t *testing.T) {
	x := NewIndex(0)
	x.Publish(Entry{OpFP: "fp", Unit: 1, Pane: 0, Part: 0, Query: "a", PID: "old", Type: 1, Bytes: 5})
	x.Publish(Entry{OpFP: "fp", Unit: 1, Pane: 0, Part: 0, Query: "a", PID: "new", Type: 1, Bytes: 9})
	ents, ok := x.ProbeExact("fp", 1, 0, 1, "b")
	if !ok || ents[0].PID != "new" || ents[0].Bytes != 9 {
		t.Fatalf("refresh did not replace: %+v", ents)
	}
	// The old PID's reverse link is gone: dropping it must not disturb
	// the refreshed entry.
	x.DropPID("old", 1)
	if _, ok := x.ProbeExact("fp", 1, 0, 1, "b"); !ok {
		t.Fatal("dropping the stale PID removed the live entry")
	}
	x.DropPID("new", 1)
	if _, ok := x.ProbeExact("fp", 1, 0, 1, "b"); ok {
		t.Fatal("entry survived DropPID of its backing cache")
	}
}

// TestEvictionROIOrder: over its bound the index drops entries in the
// eviction policy's order over their own recompute cost and bytes —
// lowest benefit density first, whoever produced them — and the oldest
// among entries the policy ranks equal.
func TestEvictionROIOrder(t *testing.T) {
	x := NewIndex(4)
	pub := func(pane int64, pid string, bytes, recompute, readyAt int64) {
		x.Publish(Entry{OpFP: "fp", Unit: 1, Pane: pane, Query: "a", PID: pid, Type: 1,
			Bytes: bytes, RecomputeNS: recompute, ReadyAtNS: readyAt})
	}
	pub(0, "small-expensive", 100, 8000, 1) // density 80
	pub(1, "large-cheap", 1000, 8000, 2)    // density 8: the first victim
	pub(2, "mid", 100, 2000, 3)             // density 20: the second
	pub(3, "dense", 10, 8000, 4)            // density 800
	pub(4, "newest", 100, 5000, 5)          // density 50
	if s := x.Stats(); s.Evicted != 1 || s.Entries != 4 {
		t.Fatalf("stats: %+v", s)
	}
	if _, ok := x.ProbeExact("fp", 1, 1, 1, "z"); ok {
		t.Fatal("the lowest-density entry survived")
	}
	pub(5, "newer", 100, 3000, 6) // density 30
	var kept []string
	for _, e := range x.Snapshot() {
		kept = append(kept, e.PID)
	}
	if got := strings.Join(kept, ","); got != "small-expensive,dense,newest,newer" {
		t.Fatalf("kept %s after two evictions", got)
	}
	// Entries the policy ranks equal go oldest-first, even one cache
	// published under two keys.
	y := NewIndex(2)
	y.Publish(Entry{OpFP: "fp", Unit: 1, Pane: 0, Part: 0, Query: "a", PID: "p", Type: 1})
	y.Publish(Entry{OpFP: "fp", Unit: 1, Pane: 1, Part: 0, Query: "a", PID: "p", Type: 1})
	y.Publish(Entry{OpFP: "fp", Unit: 1, Pane: 2, Part: 0, Query: "a", PID: "p", Type: 1})
	snap := y.Snapshot()
	if len(snap) != 2 || snap[0].Pane != 1 || snap[1].Pane != 2 {
		t.Fatalf("oldest-first tie-break broken: %+v", snap)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	mk := func(order []int64) []Entry {
		x := NewIndex(0)
		for _, p := range order {
			publishPane(x, "a", 2, p, 2, 10)
		}
		snap := x.Snapshot()
		for i := range snap {
			snap[i].Seq = 0 // insertion order intentionally differs
		}
		return snap
	}
	a := mk([]int64{0, 1, 2, 3})
	b := mk([]int64{3, 1, 0, 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot order depends on insertion order:\n%+v\n%+v", a, b)
	}
}

func TestNilIndexSafe(t *testing.T) {
	var x *Index
	x.Publish(Entry{})
	x.DropPID("p", 1)
	if _, ok := x.ProbeExact("fp", 1, 0, 1, "q"); ok {
		t.Fatal("nil index hit")
	}
	if _, _, ok := x.ProbeSubsume("fp", 2, 0, 1, "q"); ok {
		t.Fatal("nil index subsume hit")
	}
	if s := x.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats: %+v", s)
	}
	if snap := x.Snapshot(); snap != nil {
		t.Fatalf("nil snapshot: %+v", snap)
	}
}

// TestDropAbsentPIDDoesNotAllocate: the engine's reuse fold calls
// DropPID for every purged cache, most of which were never published;
// for those it is a lookup and nothing else. A published entry is still
// found by its PID and dropped.
func TestDropAbsentPIDDoesNotAllocate(t *testing.T) {
	x := NewIndex(0)
	x.Publish(Entry{OpFP: "fp", Unit: 10, Pane: 3, Query: "q1", PID: "shared/S1/P3/r0", Type: 1})
	pid := "query/q1/P3/r0"
	if n := testing.AllocsPerRun(100, func() { x.DropPID(pid, 1) }); n != 0 {
		t.Errorf("DropPID of an absent PID allocates %v times per call", n)
	}
	x.DropPID("shared/S1/P3/r0", 0) // same PID, other cache type
	if st := x.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after dropping other caches, want 1", st.Entries)
	}
	x.DropPID("shared/S1/P3/r0", 1)
	if st := x.Stats(); st.Entries != 0 || st.Dropped != 1 {
		t.Fatalf("stats after dropping the published PID: %+v", st)
	}
}
