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
	s.RecordDerivation(Derivation{ID: "x"})
	s.AddCopy([]byte("x"), CopyEvent{})
	s.MarkExpired([]byte("x"), 0)
	s.MarkLost([]byte("x"), 1, 0)
	if ref := s.Input([]byte("x")); ref != (InputRef{ID: "x"}) {
		t.Fatalf("nil Input = %+v", ref)
	}
	s.RecordAttempt(Attempt{Job: "j"})
	s.RecordFault(Fault{})
	s.RecordFileEvent("p", FileEvent{})
	if _, ok := s.Lookup("x"); ok {
		t.Fatal("nil Lookup found something")
	}
	if got := s.Closure(nil); got != nil {
		t.Fatalf("nil Closure = %v", got)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if _, ok := s.Trace("x"); ok {
		t.Fatal("nil Trace found something")
	}
}

func TestDerivationLifecycleAndClosure(t *testing.T) {
	s := New(0)
	s.RecordBatch("q", "S1", 10, []PaneRange{{Pane: 0, R: Range{0, 10}}})
	s.RecordBatch("q", "S1", 5, []PaneRange{{Pane: 1, R: Range{0, 5}}})

	rinID := DerivID("query/q/S1/u900/P0/r3", 0)
	batches := s.BatchesForPane("q", "S1", 0)
	if len(batches) != 1 || batches[0].Ranges[0] != (Range{0, 10}) {
		t.Fatalf("BatchesForPane = %+v", batches)
	}
	rebuilt, _ := s.RecordDerivation(Derivation{
		ID: rinID, Kind: "pane-rin", Query: "q", Pane: 0, Batches: batches,
	})
	if rebuilt {
		t.Fatal("first build reported as rebuild")
	}
	s.AddCopy([]byte(rinID), CopyEvent{Kind: "register", Node: 2, AtNS: 100})

	routID := DerivID("query/q/P0/r3", 1)
	s.RecordDerivation(Derivation{
		ID: routID, Kind: "pane-rout", Query: "q", Pane: 0,
		Inputs: []InputRef{s.Input(AppendDerivID(nil, "query/q/S1/u900/P0/r3", 0))},
	})
	if d, _ := s.Lookup(rinID); len(d.Consumers) != 1 || d.Consumers[0] != routID {
		t.Fatalf("consumer edge missing: %+v", d.Consumers)
	}

	resident := []ResidentRef{{ID: rinID, Node: 2}, {ID: routID, Node: 2}}
	if bad := s.Closure(resident); len(bad) != 0 {
		t.Fatalf("closure violations: %v", bad)
	}
	if bad := s.Closure([]ResidentRef{{ID: "ghost"}}); len(bad) != 1 ||
		!strings.Contains(bad[0], "no derivation") {
		t.Fatalf("ghost resident not flagged: %v", bad)
	}

	// Loss then rebuild: cause comes from the recorded fault.
	s.RecordFault(Fault{Kind: "node-crash", Node: 2, Recurrence: 4, AtNS: 500})
	cause := s.MarkLost([]byte(rinID), 2, 600)
	if !strings.Contains(cause, "node-crash") {
		t.Fatalf("MarkLost cause = %q", cause)
	}
	rebuilt, cause2 := s.RecordDerivation(Derivation{
		ID: rinID, Kind: "pane-rin", Query: "q", Pane: 0, Recurrence: 4, Batches: batches,
	})
	if !rebuilt || !strings.Contains(cause2, "node-crash") {
		t.Fatalf("rebuild = %v cause = %q", rebuilt, cause2)
	}
	if st := s.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}

	tr, ok := s.Trace(routID)
	if !ok {
		t.Fatal("Trace failed")
	}
	foundBatch := false
	for _, n := range tr.Nodes {
		if n.Kind == "batch" {
			foundBatch = true
		}
	}
	if !foundBatch {
		t.Fatalf("trace misses raw batch ancestors: %+v", tr.Nodes)
	}
	if dot := tr.DOT(); !strings.Contains(dot, "digraph lineage") {
		t.Fatalf("DOT output malformed: %s", dot)
	}
}

// Two engines running a same-named query against one shared store
// collide on derivation IDs (IDs embed the raw query name) while
// keeping distinct accounting names. That collision is an alias, not
// a recovery rebuild: the node is re-homed to the latest writer and
// neither Builds nor the rebuild counter moves.
func TestAliasedWriteIsNotARebuild(t *testing.T) {
	s := New(0)
	id := DerivID("query/q1/P0/r0", 1)
	s.RecordDerivation(Derivation{ID: id, Kind: "pane-rout", Query: "q1", Bytes: 10})
	s.AddCopy([]byte(id), CopyEvent{Kind: "register", Node: 1, AtNS: 50})

	rebuilt, cause := s.RecordDerivation(Derivation{ID: id, Kind: "pane-rout", Query: "q1#2", Bytes: 12})
	if rebuilt || cause != "" {
		t.Fatalf("alias write reported as rebuild (%v, %q)", rebuilt, cause)
	}
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
	if len(d.Copies) != 1 {
		t.Fatalf("copy history dropped on re-home: %+v", d.Copies)
	}
	if st := s.Stats(); st.Rebuilds != 0 {
		t.Fatalf("Rebuilds = %d after alias write, want 0", st.Rebuilds)
	}

	// A second write from the now-owning query IS a rebuild.
	rebuilt, _ = s.RecordDerivation(Derivation{ID: id, Kind: "pane-rout", Query: "q1#2", Bytes: 12})
	if !rebuilt {
		t.Fatal("same-query re-record not counted as rebuild")
	}
	if st := s.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
	}
}

func TestBoundedEvictionKeepsResidentNodes(t *testing.T) {
	s := New(4)
	for i := 0; i < 10; i++ {
		id := DerivID("p", i)
		s.RecordDerivation(Derivation{ID: id, Kind: "pane-rin", Query: "q"})
		if i < 8 {
			s.MarkExpired([]byte(id), int64(i))
		}
	}
	st := s.Stats()
	if st.Nodes > 4+2 { // the two resident nodes may hold the line
		t.Fatalf("store exceeded bound: %d nodes", st.Nodes)
	}
	// Resident (unexpired) derivations must survive eviction.
	for i := 8; i < 10; i++ {
		if _, ok := s.Lookup(DerivID("p", i)); !ok {
			t.Fatalf("resident derivation %d evicted", i)
		}
	}
	if s.Watermark() == 0 {
		t.Fatal("eviction did not advance the watermark")
	}
	// A reference below the watermark counts as evicted, not missing.
	evictedSeq := uint64(1)
	s.RecordDerivation(Derivation{
		ID: "consumer", Kind: "window", Query: "q",
		Inputs: []InputRef{{ID: DerivID("p", 0), Seq: evictedSeq}},
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
		s.RecordDerivation(Derivation{ID: "a", Kind: "pane-rin", Query: "q",
			Batches: s.BatchesForPane("q", "S1", 0)})
		s.AddCopy([]byte("a"), CopyEvent{Kind: "register", Node: 1, AtNS: 10})
		s.RecordAttempt(Attempt{Job: "j", Task: "t", Phase: "map", Node: 1, OK: true})
		s.RecordFileEvent("/data/f", FileEvent{Kind: "place", Nodes: []int{1, 2}})
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
	if d, _ := s.Lookup("a"); d.Batches[0].Ranges[0].Hi == 99 {
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
	s.RecordDerivation(Derivation{ID: "d0", Kind: "pane-rin", Query: "q", Pane: 0, Batches: claims})

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
	if bad := s.Closure([]ResidentRef{{ID: "d0"}}); len(bad) != 0 {
		t.Fatalf("closure violations with claimed batch retained: %v", bad)
	}

	// Once the claim expires the bound resumes on the next ingest.
	s.MarkExpired([]byte("d0"), 100)
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
	s.RecordDerivation(Derivation{ID: "d2", Kind: "pane-rin", Query: "q2", Pane: 0, Batches: c2})
	s.RecordDerivation(Derivation{ID: "d2", Kind: "pane-rin", Query: "q2", Pane: 0, Batches: c2})
	s.MarkLost([]byte("d2"), 1, 200)
	if n := s.batchClaims[batchKey{"q2", "S1", 0}]; n != 0 {
		t.Fatalf("claim count leaked across rebuild: %d", n)
	}

	// The age bound stops at a claim the same way: an unclaimed batch
	// KeepRecurrences windows old goes, a claimed one of the same age
	// stays until its claim expires.
	a := New(0)
	a.RecordBatch("q", "S1", 1, []PaneRange{{Pane: 0, R: Range{0, 1}}})
	a.RecordBatch("q", "S1", 1, []PaneRange{{Pane: 1, R: Range{0, 1}}})
	a.RecordDerivation(Derivation{ID: "d1", Kind: "pane-rin", Query: "q", Pane: 1,
		Batches: a.BatchesForPane("q", "S1", 1)})
	for r := 0; r <= KeepRecurrences; r++ {
		a.RecordDerivation(Derivation{ID: WindowID("q", r), Kind: "window", Query: "q", Recurrence: r, Expired: true})
	}
	a.RecordBatch("q", "S1", 1, nil)
	if st := a.Stats(); st.Evicted != 1 || st.Batches != 2 {
		t.Fatalf("age bound evicted %d, kept %d batches; want the unclaimed one gone, the claimed one kept", st.Evicted, st.Batches)
	}
	if bad := a.Closure([]ResidentRef{{ID: "d1"}}); len(bad) != 0 {
		t.Fatalf("closure violations with an aged claimed batch retained: %v", bad)
	}
	a.MarkExpired([]byte("d1"), 100)
	a.RecordBatch("q", "S1", 1, nil)
	if st := a.Stats(); st.Evicted != 2 || st.Batches != 2 {
		t.Fatalf("after the claim expired: evicted %d, kept %d batches; want 2 and 2", st.Evicted, st.Batches)
	}
}

// TestByIDCallsDoNotAllocate: the calls the engine's lineage fold makes
// per hit, expiry and window input take the derivation ID as bytes
// built on the caller's stack, and on a retained derivation make no
// string. An input reference shares the stored ID string.
func TestByIDCallsDoNotAllocate(t *testing.T) {
	const runs = 100
	s := New(0)
	// Each expiry retires a derivation of its own, whose copy history
	// (register and two hits) has room for the expire event, as a
	// resident cache's usually does; AllocsPerRun makes one extra,
	// warm-up call.
	pids := make([]string, runs+1)
	for i := range pids {
		pids[i] = "query/q/P" + strconv.Itoa(i) + "/r0"
		id := AppendDerivID(nil, pids[i], 1)
		s.RecordDerivation(Derivation{ID: string(id), Kind: "pane-rout", Query: "q"})
		for _, kind := range []string{"register", "hit", "hit"} {
			s.AddCopy(id, CopyEvent{Kind: kind})
		}
	}
	hot, next := pids[0], 0
	var ref InputRef
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Input", func() {
			var buf [64]byte
			ref = s.Input(AppendDerivID(buf[:0], hot, 1))
		}},
		{"AddCopy", func() {
			var buf [64]byte
			s.AddCopy(AppendDerivID(buf[:0], hot, 1), CopyEvent{Kind: "hit"})
		}},
		{"MarkExpired", func() {
			var buf [64]byte
			s.MarkExpired(AppendDerivID(buf[:0], pids[next], 1), 9)
			next++
		}},
	} {
		if n := testing.AllocsPerRun(runs, tc.f); n != 0 {
			t.Errorf("%s allocates %v times per call", tc.name, n)
		}
	}
	d, _ := s.Lookup(DerivID(hot, 1))
	if ref.ID != d.ID || unsafe.StringData(ref.ID) != unsafe.StringData(s.derivs[d.ID].ID) || ref.Seq != d.Seq {
		t.Errorf("Input = %+v, want the stored ID string and seq %d", ref, d.Seq)
	}
	if !d.Expired || d.Copies[len(d.Copies)-1].Kind != "expire" {
		t.Errorf("MarkExpired left %s resident: %+v", d.ID, d.Copies)
	}
}

// A query recurring far past KeepRecurrences with a three-pane window:
// what aged out is gone, and what is kept is either young or still
// needed, with the store's structure closed. Derivations, batches and
// file histories all follow the one rule.
func TestAgeEvictionKeepsClosure(t *testing.T) {
	const win, recs = 3, 40
	s := New(0)
	rin := func(p int) string { return DerivID("query/q/S1/P"+strconv.Itoa(p), 0) }
	rout := func(p int) string { return DerivID("query/q/P"+strconv.Itoa(p), 1) }
	for r := 0; r < recs; r++ {
		// Pane r arrives and is built; the window of panes r-2..r is
		// emitted; pane r-2 then leaves every window.
		s.RecordBatch("q", "S1", 4, []PaneRange{{Pane: int64(r), R: Range{0, 4}}})
		s.RecordFileEvent("/redoop/q/S1/P"+strconv.Itoa(r), FileEvent{Kind: "place", Nodes: []int{1, 2}})
		s.RecordDerivation(Derivation{ID: rin(r), Kind: "pane-rin", Query: "q", Recurrence: r,
			Pane: int64(r), Batches: s.BatchesForPane("q", "S1", int64(r))})
		s.RecordDerivation(Derivation{ID: rout(r), Kind: "pane-rout", Query: "q", Recurrence: r,
			Pane: int64(r), Inputs: []InputRef{s.Input([]byte(rin(r)))}})
		var inputs []InputRef
		for p := max(r-win+1, 0); p <= r; p++ {
			inputs = append(inputs, s.Input([]byte(rout(p))))
		}
		s.RecordDerivation(Derivation{ID: WindowID("q", r), Kind: "window", Query: "q",
			Recurrence: r, Inputs: inputs, Expired: true})
		if p := r - win + 1; p >= 0 {
			s.MarkExpired([]byte(rin(p)), int64(r))
			s.MarkExpired([]byte(rout(p)), int64(r))
		}
	}
	var resident []ResidentRef
	for p := recs - win + 1; p < recs; p++ {
		resident = append(resident, ResidentRef{ID: rin(p)}, ResidentRef{ID: rout(p)})
	}
	if bad := s.Closure(resident); len(bad) != 0 {
		t.Fatalf("closure violations after age eviction: %v", bad)
	}
	snap := s.Snapshot()
	windows := 0
	for _, d := range snap.Derivations {
		if recs-1-d.Recurrence >= KeepRecurrences {
			t.Errorf("%s, built at recurrence %d, kept at %d", d.ID, d.Recurrence, recs-1)
		}
		if d.Kind == "window" {
			windows++
		}
	}
	if windows != KeepRecurrences {
		t.Errorf("%d windows kept, want the newest %d", windows, KeepRecurrences)
	}
	// Batches and files are stamped when recorded, before their
	// recurrence's window: one more of them is young enough.
	if n := len(snap.Batches); n != KeepRecurrences+1 || snap.Batches[0].Seq != recs-KeepRecurrences-1 {
		t.Errorf("%d batches kept from seq %d, want the newest %d", n, snap.Batches[0].Seq, KeepRecurrences+1)
	}
	if n := len(snap.Files); n != KeepRecurrences+1 {
		t.Errorf("%d file histories kept, want the newest %d", n, KeepRecurrences+1)
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
	s.RecordDerivation(Derivation{ID: "pinned", Kind: "pane-rout", Query: "q"})
	for r := 0; r < recs; r++ {
		id := DerivID("p", r)
		s.RecordDerivation(Derivation{ID: id, Kind: "pane-rout", Query: "q", Recurrence: r})
		s.MarkExpired([]byte(id), int64(r))
		s.RecordDerivation(Derivation{ID: WindowID("q", r), Kind: "window", Query: "q",
			Recurrence: r, Inputs: []InputRef{s.Input([]byte(id))}, Expired: true})
	}
	if st := s.Stats(); st.Evicted != 0 || st.Nodes != 1+2*recs {
		t.Fatalf("evicted %d of %d past a resident head", st.Evicted, st.Nodes)
	}
	s.MarkExpired([]byte("pinned"), recs)
	s.RecordDerivation(Derivation{ID: WindowID("q", recs), Kind: "window", Query: "q", Recurrence: recs, Expired: true})
	// Window recs makes recurrences 0..recs-KeepRecurrences old enough:
	// the head and their derivation and window each.
	if st, want := s.Stats(), 1+2*(recs-KeepRecurrences+1); st.Evicted != want {
		t.Fatalf("evicted %d once the head expired, want %d", st.Evicted, want)
	}
	if bad := s.Closure(nil); len(bad) != 0 {
		t.Fatalf("closure violations: %v", bad)
	}
	if _, ok := s.Lookup(DerivID("p", recs-KeepRecurrences+1)); !ok {
		t.Fatal("a derivation younger than the age bound was evicted")
	}
}
