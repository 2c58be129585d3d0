package lineage

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if seq := s.RecordBatch("q", "S1", 3, nil); seq != -1 {
		t.Fatalf("nil RecordBatch = %d, want -1", seq)
	}
	s.RecordPlan("fp", Plan{})
	s.RecordDerivation(Derivation{Key: Key{PID: "x"}})
	s.MarkExpired(Key{PID: "x"})
	if ref := s.Input([]byte("x"), 0); ref != (InputRef{Key: Key{"x", 0}}) {
		t.Fatalf("nil Input = %+v", ref)
	}
	if _, ok := s.Lookup(Key{PID: "x"}); ok {
		t.Fatal("nil Lookup found something")
	}
	if got := s.Closure(nil); got != nil {
		t.Fatalf("nil Closure = %v", got)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if _, ok := s.Trace(Key{PID: "x"}); ok {
		t.Fatal("nil Trace found something")
	}
}

func TestDerivationLifecycleAndClosure(t *testing.T) {
	s := New(0)
	s.RecordBatch("q", "S1", 10, []PaneRange{{Pane: 0, R: Range{0, 10}}})
	s.RecordBatch("q", "S1", 5, []PaneRange{{Pane: 1, R: Range{0, 5}}})

	rinID := Key{"query/q/S1/u900/P0/r3", 0}
	batches := s.BatchesForPane("q", "S1", 0)
	if len(batches) != 1 || batches[0].Ranges[0] != (Range{0, 10}) {
		t.Fatalf("BatchesForPane = %+v", batches)
	}
	s.RecordDerivation(Derivation{
		Key: rinID, Kind: "pane-rin", Query: "q", Pane: 0, Batches: batches,
	})
	if st := s.Stats(); st.Rebuilds != 0 {
		t.Fatal("first build counted as rebuild")
	}

	routID := Key{"query/q/P0/r3", 1}
	s.RecordDerivation(Derivation{
		Key: routID, Kind: "pane-rout", Query: "q", Pane: 0,
		Inputs: []InputRef{inputRef(s, rinID)},
	})
	if d, _ := s.Lookup(rinID); len(d.Consumers) != 1 || d.Consumers[0] != routID.ID() {
		t.Fatalf("consumer edge missing: %+v", d.Consumers)
	}

	if bad := s.Closure([]Key{rinID, routID}); len(bad) != 0 {
		t.Fatalf("closure violations: %v", bad)
	}
	if bad := s.Closure([]Key{{PID: "ghost"}}); len(bad) != 1 ||
		!strings.Contains(bad[0], "no derivation") {
		t.Fatalf("ghost resident not flagged: %v", bad)
	}

	// Loss then rebuild: the lost cache's derivation expires, and the
	// registration that rebuilds it counts a rebuild.
	s.MarkExpired(rinID)
	if bad := s.Closure([]Key{rinID}); len(bad) != 1 || !strings.Contains(bad[0], "expired") {
		t.Fatalf("lost cache still resident in the store: %v", bad)
	}
	s.RecordDerivation(Derivation{
		Key: rinID, Kind: "pane-rin", Query: "q", Pane: 0, Recurrence: 4, Batches: batches,
	})
	if d, _ := s.Lookup(rinID); d.Expired || d.Builds != 2 {
		t.Fatalf("rebuilt derivation: expired %v, builds %d", d.Expired, d.Builds)
	}
	if st := s.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}

	tr, ok := s.Trace(routID)
	if !ok {
		t.Fatal("Trace failed")
	}
	// The walk reaches back from the rout through its rin to the raw
	// batch, one level of depth per hop.
	depths := map[string]int{}
	for _, n := range tr.Nodes {
		depths[n.Kind] = n.Depth
	}
	if want := map[string]int{"pane-rout": 0, "pane-rin": -1, "batch": -2}; !reflect.DeepEqual(depths, want) {
		t.Fatalf("trace node depths = %v, want %v: %+v", depths, want, tr.Nodes)
	}
}

// Two engines running a same-named query against one shared store
// collide on derivation IDs (IDs embed the raw query name) while
// keeping distinct accounting names. That collision is an alias, not
// a recovery rebuild: the node is re-homed to the latest writer and
// neither Builds nor the rebuild counter moves.
func TestAliasedWriteIsNotARebuild(t *testing.T) {
	s := New(0)
	id := Key{"query/q1/P0/r0", 1}
	s.RecordDerivation(Derivation{Key: id, Kind: "pane-rout", Query: "q1", Bytes: 10})

	s.RecordDerivation(Derivation{Key: id, Kind: "pane-rout", Query: "q1#2", Bytes: 12})
	d, ok := s.Lookup(id)
	if !ok {
		t.Fatal("derivation lost after alias write")
	}
	if d.Query != "q1#2" || d.Bytes != 12 {
		t.Fatalf("node not re-homed: query %q bytes %d", d.Query, d.Bytes)
	}
	if d.Builds != 1 {
		t.Fatalf("Builds = %d after alias write, want 1", d.Builds)
	}
	if st := s.Stats(); st.Rebuilds != 0 {
		t.Fatalf("Rebuilds = %d after alias write, want 0", st.Rebuilds)
	}

	// A second write from the now-owning query IS a rebuild.
	s.RecordDerivation(Derivation{Key: id, Kind: "pane-rout", Query: "q1#2", Bytes: 12})
	if st := s.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}
}

func TestBoundedEvictionKeepsResidentNodes(t *testing.T) {
	s := New(4)
	for i := 0; i < 10; i++ {
		id := Key{"p", i}
		s.RecordDerivation(Derivation{Key: id, Kind: "pane-rin", Query: "q"})
		if i < 8 {
			s.MarkExpired(id)
		}
	}
	st := s.Stats()
	if st.Nodes > 4+2 { // the two resident nodes may hold the line
		t.Fatalf("store exceeded bound: %d nodes", st.Nodes)
	}
	// Resident (unexpired) derivations must survive eviction.
	for i := 8; i < 10; i++ {
		if _, ok := s.Lookup(Key{"p", i}); !ok {
			t.Fatalf("resident derivation %d evicted", i)
		}
	}
	if s.Watermark() == 0 {
		t.Fatal("eviction did not advance the watermark")
	}
	// A reference below the watermark counts as evicted, not missing.
	evictedSeq := uint64(1)
	s.RecordDerivation(Derivation{
		Key: Key{PID: "consumer"}, Kind: "window", Query: "q",
		Inputs: []InputRef{{Key: Key{"p", 0}, Seq: evictedSeq}},
	})
	if bad := s.Closure(nil); len(bad) != 0 {
		t.Fatalf("evicted input flagged as violation: %v", bad)
	}
}

func TestFingerprintInjectivityViolationSurfacesInClosure(t *testing.T) {
	s := New(0)
	s.RecordPlan("samefp", Plan{Reduce: "a"})
	s.RecordPlan("samefp", Plan{Reduce: "b"})
	bad := s.Closure(nil)
	if len(bad) != 1 || !strings.Contains(bad[0], "two plans") {
		t.Fatalf("collision not surfaced: %v", bad)
	}
}

func TestSnapshotDeepEqualAndIndependence(t *testing.T) {
	build := func() *Store {
		s := New(0)
		s.RecordBatch("q", "S1", 3, []PaneRange{{Pane: 0, R: Range{0, 3}}})
		s.RecordPlan("fp", Plan{Reduce: "r"})
		s.RecordDerivation(Derivation{Key: Key{PID: "a"}, Kind: "pane-rin", Query: "q",
			Batches: s.BatchesForPane("q", "S1", 0)})
		return s
	}
	a, b := build().Snapshot(), build().Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical construction produced unequal snapshots:\n%+v\nvs\n%+v", a, b)
	}
	// The snapshot must be a deep copy: mutating it must not leak back.
	a.Derivations[0].Consumers = append(a.Derivations[0].Consumers, "x")
	s := build()
	snap := s.Snapshot()
	snap.Derivations[0].Batches[0].Ranges[0].Hi = 99
	if d, _ := s.Lookup(Key{PID: "a"}); d.Batches[0].Ranges[0].Hi == 99 {
		t.Fatal("snapshot aliases store memory")
	}
}

// TestBatchEvictionFloorHonorsLiveClaims is the regression test for a
// silent provenance hole: the batch bound used to evict the oldest
// batch unconditionally, and when a live derivation still claimed it,
// the floor advance made Closure treat the claim as a legitimate
// eviction — the audit trail lied. Claimed batches must hold the
// eviction line until the claim expires.
func TestBatchEvictionFloorHonorsLiveClaims(t *testing.T) {
	s := New(4)
	s.RecordBatch("q", "S1", 1, []PaneRange{{Pane: 0, R: Range{0, 1}}})
	claims := s.BatchesForPane("q", "S1", 0)
	if len(claims) != 1 {
		t.Fatalf("claims = %+v", claims)
	}
	s.RecordDerivation(Derivation{Key: Key{PID: "d0"}, Kind: "pane-rin", Query: "q", Pane: 0, Batches: claims})

	// Push well past the bound: the oldest batch is claimed, so the
	// bound must stop at it rather than punch a hole under d0.
	for i := 0; i < 10; i++ {
		s.RecordBatch("q", "S1", 1, nil)
	}
	st := s.Stats()
	if st.Evicted != 0 {
		t.Fatalf("evicted %d batches past a live claim", st.Evicted)
	}
	if st.Batches != 11 {
		t.Fatalf("Batches = %d, want all 11 retained while the claim is live", st.Batches)
	}
	if bad := s.Closure([]Key{{PID: "d0"}}); len(bad) != 0 {
		t.Fatalf("closure violations with claimed batch retained: %v", bad)
	}

	// Once the claim expires the bound resumes on the next ingest.
	s.MarkExpired(Key{PID: "d0"})
	s.RecordBatch("q", "S1", 1, nil)
	st = s.Stats()
	if st.Batches != 4 {
		t.Fatalf("Batches = %d after claim expiry, want cap 4", st.Batches)
	}
	if st.Evicted != 8 {
		t.Fatalf("Evicted = %d, want 8", st.Evicted)
	}

	// A rebuild that re-records the derivation shifts its claims, not
	// leaks them: expiring the rebuild must leave no residual claim.
	s.RecordBatch("q2", "S1", 1, []PaneRange{{Pane: 0, R: Range{0, 1}}})
	c2 := s.BatchesForPane("q2", "S1", 0)
	s.RecordDerivation(Derivation{Key: Key{PID: "d2"}, Kind: "pane-rin", Query: "q2", Pane: 0, Batches: c2})
	s.RecordDerivation(Derivation{Key: Key{PID: "d2"}, Kind: "pane-rin", Query: "q2", Pane: 0, Batches: c2})
	s.MarkExpired(Key{PID: "d2"})
	if n := s.batchClaims[batchKey{"q2", "S1", 0}]; n != 0 {
		t.Fatalf("claim count leaked across rebuild: %d", n)
	}

	// The age bound stops at a claim the same way: an unclaimed batch
	// KeepRecurrences windows old goes, a claimed one of the same age
	// stays until its claim expires.
	a := New(0)
	a.RecordBatch("q", "S1", 1, []PaneRange{{Pane: 0, R: Range{0, 1}}})
	a.RecordBatch("q", "S1", 1, []PaneRange{{Pane: 1, R: Range{0, 1}}})
	a.RecordDerivation(Derivation{Key: Key{PID: "d1"}, Kind: "pane-rin", Query: "q", Pane: 1,
		Batches: a.BatchesForPane("q", "S1", 1)})
	for r := 0; r <= KeepRecurrences; r++ {
		a.RecordDerivation(Derivation{Key: WindowKey("q", r), Kind: "window", Query: "q", Recurrence: r, Expired: true})
	}
	a.RecordBatch("q", "S1", 1, nil)
	if st := a.Stats(); st.Evicted != 1 || st.Batches != 2 {
		t.Fatalf("age bound evicted %d, kept %d batches; want the unclaimed one gone, the claimed one kept", st.Evicted, st.Batches)
	}
	if bad := a.Closure([]Key{{PID: "d1"}}); len(bad) != 0 {
		t.Fatalf("closure violations with an aged claimed batch retained: %v", bad)
	}
	a.MarkExpired(Key{PID: "d1"})
	a.RecordBatch("q", "S1", 1, nil)
	if st := a.Stats(); st.Evicted != 2 || st.Batches != 2 {
		t.Fatalf("after the claim expired: evicted %d, kept %d batches; want 2 and 2", st.Evicted, st.Batches)
	}
}

// inputRef is the reference a consumer records to the derivation k
// names (Store.Input).
func inputRef(s *Store, k Key) InputRef { return s.Input([]byte(k.PID), k.Type) }

// TestByIDCallsDoNotAllocate: the calls the engine's lineage fold makes
// per expiry and window input take the derivation's key, or its PID as
// bytes built on the caller's stack, and on a retained derivation make
// no string. An input reference shares the stored PID string.
func TestByIDCallsDoNotAllocate(t *testing.T) {
	const runs = 100
	s := New(0)
	// Each expiry retires a derivation of its own; AllocsPerRun makes
	// one extra, warm-up call.
	pids := make([]string, runs+1)
	for i := range pids {
		pids[i] = "query/q/P" + strconv.Itoa(i) + "/r0"
		s.RecordDerivation(Derivation{Key: Key{pids[i], 1}, Kind: "pane-rout", Query: "q"})
	}
	hot, next := pids[0], 0
	var ref InputRef
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Input", func() {
			var buf [64]byte
			ref = s.Input(append(buf[:0], hot...), 1)
		}},
		{"MarkExpired", func() {
			s.MarkExpired(Key{pids[next], 1})
			next++
		}},
	} {
		if n := testing.AllocsPerRun(runs, tc.f); n != 0 {
			t.Errorf("%s allocates %v times per call", tc.name, n)
		}
	}
	d, _ := s.Lookup(Key{hot, 1})
	stored, _ := s.lookupLocked(Key{hot, 1})
	if ref.Key != (Key{hot, 1}) || unsafe.StringData(ref.Key.PID) != unsafe.StringData(stored.Key.PID) || ref.Seq != d.Seq {
		t.Errorf("Input = %+v, want the stored PID string and seq %d", ref, d.Seq)
	}
	if !d.Expired {
		t.Errorf("MarkExpired left %s resident", d.Key.ID())
	}
}

// A query recurring far past KeepRecurrences with a three-pane window:
// what aged out is gone, and what is kept is either young or still
// needed, with the store's structure closed. Derivations and batches
// both follow the one rule.
func TestAgeEvictionKeepsClosure(t *testing.T) {
	const win, recs = 3, 40
	s := New(0)
	rin := func(p int) Key { return Key{"query/q/S1/P" + strconv.Itoa(p), 0} }
	rout := func(p int) Key { return Key{"query/q/P" + strconv.Itoa(p), 1} }
	for r := 0; r < recs; r++ {
		// Pane r arrives and is built; the window of panes r-2..r is
		// emitted; pane r-2 then leaves every window.
		s.RecordBatch("q", "S1", 4, []PaneRange{{Pane: int64(r), R: Range{0, 4}}})
		s.RecordDerivation(Derivation{Key: rin(r), Kind: "pane-rin", Query: "q", Recurrence: r,
			Pane: int64(r), Batches: s.BatchesForPane("q", "S1", int64(r))})
		s.RecordDerivation(Derivation{Key: rout(r), Kind: "pane-rout", Query: "q", Recurrence: r,
			Pane: int64(r), Inputs: []InputRef{inputRef(s, rin(r))}})
		var inputs []InputRef
		for p := max(r-win+1, 0); p <= r; p++ {
			inputs = append(inputs, inputRef(s, rout(p)))
		}
		s.RecordDerivation(Derivation{Key: WindowKey("q", r), Kind: "window", Query: "q",
			Recurrence: r, Inputs: inputs, Expired: true})
		if p := r - win + 1; p >= 0 {
			s.MarkExpired(rin(p))
			s.MarkExpired(rout(p))
		}
	}
	var resident []Key
	for p := recs - win + 1; p < recs; p++ {
		resident = append(resident, rin(p), rout(p))
	}
	if bad := s.Closure(resident); len(bad) != 0 {
		t.Fatalf("closure violations after age eviction: %v", bad)
	}
	snap := s.Snapshot()
	windows := 0
	for _, d := range snap.Derivations {
		if recs-1-d.Recurrence >= KeepRecurrences {
			t.Errorf("%s, built at recurrence %d, kept at %d", d.Key.ID(), d.Recurrence, recs-1)
		}
		if d.Kind == "window" {
			windows++
		}
	}
	if windows != KeepRecurrences {
		t.Errorf("%d windows kept, want the newest %d", windows, KeepRecurrences)
	}
	// Batches are stamped when recorded, before their recurrence's
	// window: one more of them is young enough.
	if n := len(snap.Batches); n != KeepRecurrences+1 || snap.Batches[0].Seq != recs-KeepRecurrences-1 {
		t.Errorf("%d batches kept from seq %d, want the newest %d", n, snap.Batches[0].Seq, KeepRecurrences+1)
	}
	if snap.Watermark == 0 || snap.Stats.Evicted == 0 {
		t.Errorf("nothing evicted: watermark %d, evicted %d", snap.Watermark, snap.Stats.Evicted)
	}
}

// A resident derivation at the head of the order holds every younger
// one, however old, until it expires: eviction never skips past it, so
// the watermark still splits evicted from retained.
func TestResidentHeadBlocksAgeEviction(t *testing.T) {
	const recs = 40
	s := New(0)
	s.RecordDerivation(Derivation{Key: Key{PID: "pinned"}, Kind: "pane-rout", Query: "q"})
	for r := 0; r < recs; r++ {
		id := Key{"p", r}
		s.RecordDerivation(Derivation{Key: id, Kind: "pane-rout", Query: "q", Recurrence: r})
		s.MarkExpired(id)
		s.RecordDerivation(Derivation{Key: WindowKey("q", r), Kind: "window", Query: "q",
			Recurrence: r, Inputs: []InputRef{inputRef(s, id)}, Expired: true})
	}
	if st := s.Stats(); st.Evicted != 0 || st.Nodes != 1+2*recs {
		t.Fatalf("evicted %d of %d past a resident head", st.Evicted, st.Nodes)
	}
	s.MarkExpired(Key{PID: "pinned"})
	s.RecordDerivation(Derivation{Key: WindowKey("q", recs), Kind: "window", Query: "q", Recurrence: recs, Expired: true})
	// Window recs makes recurrences 0..recs-KeepRecurrences old enough:
	// the head and their derivation and window each.
	if st, want := s.Stats(), 1+2*(recs-KeepRecurrences+1); st.Evicted != want {
		t.Fatalf("evicted %d once the head expired, want %d", st.Evicted, want)
	}
	if bad := s.Closure(nil); len(bad) != 0 {
		t.Fatalf("closure violations: %v", bad)
	}
	if _, ok := s.Lookup(Key{"p", recs - KeepRecurrences + 1}); !ok {
		t.Fatal("a derivation younger than the age bound was evicted")
	}
}

// Consumers are derived when read, from the retained derivations'
// inputs in insertion order: the order they first linked in, which a
// rebuild of a consumer or a same-name alias of it, keeping its place,
// does not change. Lookup and Snapshot agree.
func TestConsumersKeepFirstLinkOrder(t *testing.T) {
	s := New(0)
	up := Key{"query/q/S1/P0/r0", 0}
	s.RecordDerivation(Derivation{Key: up, Kind: "pane-rin", Query: "q"})
	c1, c2, c3 := Key{"query/q/P0/r0", 1}, Key{"query/q/P0/r1", 1}, Key{"query/q/P0/r2", 1}
	for _, c := range []Key{c1, c2, c3} {
		s.RecordDerivation(Derivation{Key: c, Kind: "pane-rout", Query: "q", Inputs: []InputRef{inputRef(s, up)}})
	}
	// c1 is rebuilt and c2 re-homed to a same-named query's engine, each
	// naming its input twice, as a merge of one input with itself would.
	twice := []InputRef{inputRef(s, up), inputRef(s, up)}
	s.RecordDerivation(Derivation{Key: c1, Kind: "pane-rout", Query: "q", Recurrence: 1, Inputs: twice})
	s.RecordDerivation(Derivation{Key: c2, Kind: "pane-rout", Query: "q#2", Inputs: twice})
	want := []string{c1.ID(), c2.ID(), c3.ID()}
	if d, _ := s.Lookup(up); !reflect.DeepEqual(d.Consumers, want) {
		t.Fatalf("Lookup consumers = %q, want %q", d.Consumers, want)
	}
	if got := s.Snapshot().Derivations[0].Consumers; !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot consumers = %q, want %q", got, want)
	}
	if d, _ := s.Lookup(c1); d.Builds != 2 || d.Consumers != nil {
		t.Fatalf("rebuilt consumer: builds %d, consumers %q", d.Builds, d.Consumers)
	}
}

// A consumer the store evicted is no consumer: the derivation it
// named lists only what is still retained, and closure holds.
func TestEvictedConsumerLeavesTheList(t *testing.T) {
	s := New(2)
	up := Key{"query/q/P0/r0", 1}
	// The window is recorded before the cache it consumes is (re)built,
	// so it stands ahead of it in the order and can be evicted first.
	win := WindowKey("q", 0)
	s.RecordDerivation(Derivation{Key: win, Kind: "window", Query: "q", Expired: true,
		Inputs: []InputRef{{Key: up}}})
	s.RecordDerivation(Derivation{Key: up, Kind: "pane-rout", Query: "q"})
	if d, _ := s.Lookup(up); !reflect.DeepEqual(d.Consumers, []string{win.ID()}) {
		t.Fatalf("consumers = %q, want the window", d.Consumers)
	}
	s.RecordDerivation(Derivation{Key: WindowKey("q", 1), Kind: "window", Query: "q", Recurrence: 1, Expired: true})
	if _, ok := s.Lookup(win); ok {
		t.Fatal("the window past the bound was not evicted")
	}
	if d, _ := s.Lookup(up); d.Consumers != nil {
		t.Fatalf("consumers = %q after their eviction, want none", d.Consumers)
	}
	if bad := s.Closure([]Key{up}); len(bad) != 0 {
		t.Fatalf("closure violations: %v", bad)
	}
}

// A rebuild replaces the whole record but its place and build count:
// an output rebuilt from its cached reduce input, by no job, names no
// job, where it once named the map job that first built it.
func TestRebuildReplacesTheRecord(t *testing.T) {
	s := New(0)
	k := Key{"query/q/P0/r0", 1}
	s.RecordDerivation(Derivation{Key: k, Kind: "pane-rout", Query: "q", Job: "q-pane0", Bytes: 10, CostNS: 7})
	s.RecordDerivation(Derivation{Key: k, Kind: "pane-rout", Query: "q", Recurrence: 3, Bytes: 12, CostNS: 9})
	d, _ := s.Lookup(k)
	if d.Job != "" || d.Recurrence != 3 || d.Bytes != 12 || d.CostNS != 9 {
		t.Fatalf("rebuilt derivation = %+v, want the rebuild's record, with no job", d)
	}
	if d.Builds != 2 || d.Seq != 1 {
		t.Fatalf("rebuilt derivation: builds %d, seq %d; want 2 and its first seq 1", d.Builds, d.Seq)
	}
}

// TestCleanClosureAllocatesNothing: a Closure that finds no violation
// builds no string. Claimed batches are looked up by value, and a
// BatchID is made only for a report that names one. The query's name
// is a real one's length: a shorter BatchID would be built on the stack.
func TestCleanClosureAllocatesNothing(t *testing.T) {
	const q = "agg-hi-overlap-observed"
	s := New(0)
	var resident []Key
	for pane := range 4 {
		s.RecordBatch(q, "S1", 10, []PaneRange{{Pane: int64(pane), R: Range{0, 10}}})
		rin := Key{"query/q/S1/u900/P" + strconv.Itoa(pane) + "/r0", 1}
		s.RecordDerivation(Derivation{Key: rin, Kind: "pane-rin", Query: q, Pane: int64(pane),
			Batches: s.BatchesForPane(q, "S1", int64(pane))})
		rout := Key{"query/q/P" + strconv.Itoa(pane) + "/r0", 2}
		s.RecordDerivation(Derivation{Key: rout, Kind: "pane-rout", Query: q, Pane: int64(pane),
			Inputs: []InputRef{inputRef(s, rin)}})
		resident = append(resident, rin, rout)
	}
	if bad := s.Closure(resident); len(bad) != 0 {
		t.Fatalf("closure violations: %v", bad)
	}
	if n := testing.AllocsPerRun(20, func() { s.Closure(resident) }); n != 0 {
		t.Fatalf("a clean Closure over %d claims allocates %v times", len(resident)/2, n)
	}
}
