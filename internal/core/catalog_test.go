package core

import (
	"testing"

	"redoop/internal/cluster"
	"redoop/internal/simtime"
)

func twoNodeCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	return newCluster(t, cluster.Config{Workers: 2, MapSlots: 2, ReduceSlots: 1})
}

// twoNodeCatalog returns a catalog of n queries, 0 to n-1, and its
// registries of a two-node cluster.
func twoNodeCatalog(t *testing.T, n int) (*Controller, [2]*Registry) {
	t.Helper()
	cl, ctrl := twoNodeCluster(t), NewController()
	for q := range n {
		if got := ctrl.addQuery(); got != q {
			t.Fatalf("query %d has bit %d", q, got)
		}
	}
	return ctrl, [2]*Registry{ctrl.view(cl.Node(0)), ctrl.view(cl.Node(1))}
}

// register stores data as a cache on reg's node, signed for users.
func register(reg *Registry, pid string, typ CacheType, data []byte, users ...int) {
	reg.c.register(reg.NodeID(), newRecord([]byte(pid), typ), 0, data, users)
}

// markDone releases a cache for query q, reporting the purge notice.
func markDone(ctrl *Controller, pid string, typ CacheType, q int) bool {
	return ctrl.markQueryDone([]byte(pid), typ, q) != nil
}

func TestRegistryAddGetPurge(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 1)
	reg := regs[0]
	if reg.NodeID() != 0 {
		t.Fatalf("NodeID = %d", reg.NodeID())
	}
	register(reg, "S1P3/r0", ReduceOutput, []byte("agg"), 0)
	register(reg, "S2P4/r0", ReduceInput, []byte("input"), 0)

	if got, ok := reg.Get("S1P3/r0", ReduceOutput); !ok || string(got) != "agg" {
		t.Errorf("Get = %q, %v", got, ok)
	}
	if !reg.Has("S2P4/r0", ReduceInput) || reg.Has("S2P4/r0", ReduceOutput) {
		t.Error("Has should distinguish cache types")
	}

	// Paper Table 1: S1P3 expired as output cache, S2P4 live as input.
	markDone(ctrl, "S1P3/r0", ReduceOutput, 0)
	entries := reg.Entries()
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if !entries[0].Expired || entries[0].PID != "S1P3/r0" {
		t.Errorf("entry 0 = %+v, want expired S1P3/r0", entries[0])
	}
	if entries[1].Expired {
		t.Errorf("entry 1 should be live: %+v", entries[1])
	}

	if got := reg.PurgeExpired(); got != 1 {
		t.Errorf("purged %d, want 1", got)
	}
	if reg.Has("S1P3/r0", ReduceOutput) {
		t.Error("purged cache should be gone from local FS")
	}
	if !reg.Has("S2P4/r0", ReduceInput) {
		t.Error("live cache should survive the purge")
	}
}

// TestRegistryMarkExpiredUnknownIsNoop: a purge notice expires only a
// signed cache. One the catalog does not know, or a row planted with no
// signature, stays as it is and nothing purges.
func TestRegistryMarkExpiredUnknownIsNoop(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 1)
	regs[0].Add("planted", ReduceInput, []byte("x"))
	for _, pid := range []string{"ghost", "planted"} {
		if markDone(ctrl, pid, ReduceInput, 0) {
			t.Errorf("a purge notice for %s", pid)
		}
	}
	if regs[0].PurgeExpired() != 0 || len(regs[0].Entries()) != 1 {
		t.Errorf("after the purge: %+v", regs[0].Entries())
	}
}

func TestCachedBytes(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 1)
	reg := regs[0]
	register(reg, "a", ReduceInput, []byte("12345"), 0)
	reg.Add("b", ReduceOutput, []byte("123"))
	if got := reg.CachedBytes(); got != 8 {
		t.Errorf("CachedBytes = %d, want 8", got)
	}
	markDone(ctrl, "a", ReduceInput, 0)
	if got := reg.CachedBytes(); got != 3 {
		t.Errorf("CachedBytes after expiry = %d, want 3", got)
	}
}

func TestCacheTypeString(t *testing.T) {
	if ReduceInput.String() != "reduce-input" || ReduceOutput.String() != "reduce-output" {
		t.Error("CacheType names wrong")
	}
	if CacheType(9).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestControllerRegisterLookup(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 2)
	q1, q2 := 0, 1
	ctrl.register(1, newRecord([]byte("S1P1/r0"), ReduceInput), 7, make([]byte, 100), []int{q1})
	got, ok := ctrl.Lookup("S1P1/r0", ReduceInput)
	if !ok || got.NID != 1 || got.Ready != CacheAvailable || got.Bytes != 100 || got.ReadyAt != simtime.Time(7) {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if mask := got.doneQueryMask; mask[q1] || !mask[q2] {
		t.Errorf("mask = %v: used query bit must be 0, unused 1 (paper init)", mask)
	}
	if _, ok := ctrl.Lookup("nope", ReduceInput); ok {
		t.Error("missing signature should not resolve")
	}
	regs[0].Add("planted", ReduceInput, []byte("x"))
	if _, ok := ctrl.Lookup("planted", ReduceInput); ok || len(ctrl.Signatures()) != 1 {
		t.Error("a row planted with no signature resolves as one")
	}
}

// TestControllerReRegisterPreservesOtherClaims: a cache registered again
// keeps every query's claim, and one registered on another node moves
// there and expires the copy it left (re-homing).
func TestControllerReRegisterPreservesOtherClaims(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 2)
	q1, q2 := 0, 1
	register(regs[0], "shared", ReduceInput, make([]byte, 10), q1)
	ctrl.register(1, newRecord([]byte("shared"), ReduceInput), 5, make([]byte, 20), []int{q2})
	sig, _ := ctrl.Lookup("shared", ReduceInput)
	if mask := sig.doneQueryMask; mask[q1] || mask[q2] {
		t.Errorf("both claims should persist across re-register, mask = %v", mask)
	}
	if sig.NID != 1 || sig.Bytes != 20 {
		t.Error("re-register should refresh location and size")
	}
	if e := regs[0].Entries(); len(e) != 1 || !e[0].Expired {
		t.Errorf("node 0 after the re-home: %+v, want its copy expired", e)
	}
	if regs[0].PurgeExpired() != 1 || regs[0].Has("shared", ReduceInput) || !regs[1].Has("shared", ReduceInput) {
		t.Error("the purge should remove the old home's copy and only it")
	}
}

func TestControllerPurgeNotification(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 2)
	q1, q2 := 0, 1
	reg := regs[0]
	register(reg, "p", ReduceOutput, []byte("d"), q1, q2)

	if markDone(ctrl, "p", ReduceOutput, q1) {
		t.Error("purge must wait for every using query")
	}
	if !markDone(ctrl, "p", ReduceOutput, q2) {
		t.Error("last query done should trigger the purge notification")
	}
	// The node's registry entry is now expired; the data survives
	// until the node's purge cycle runs.
	if !reg.Has("p", ReduceOutput) {
		t.Error("data should remain until the local purge")
	}
	if reg.PurgeExpired() != 1 {
		t.Error("entry should have been marked expired by the notification")
	}
	if _, ok := ctrl.Lookup("p", ReduceOutput); ok {
		t.Error("signature should be dropped after the purge notification")
	}
}

// TestControllerClaimUser: a hit claims its cache for the reading query,
// so another query's release does not purge it.
func TestControllerClaimUser(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 2)
	q1, q2 := 0, 1
	register(regs[0], "c", ReduceInput, []byte("c"), q1)
	if _, f := ctrl.acquire([]byte("c"), ReduceInput, q2); f != resident {
		t.Errorf("acquire of a resident cache found %d", f)
	}
	markDone(ctrl, "c", ReduceInput, q1)
	if _, ok := ctrl.Lookup("c", ReduceInput); !ok {
		t.Error("cache claimed by q2 must survive q1's release")
	}
	if _, f := ctrl.acquire([]byte("ghost"), ReduceInput, q1); f != unknown {
		t.Errorf("acquire of an unknown cache found %d", f)
	}
}

func TestControllerSetReady(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 1)
	ctrl.register(0, newRecord([]byte("c"), ReduceInput), 10, make([]byte, 5), []int{0})
	ctrl.SetReady("c", ReduceInput, HDFSAvailable, 20, 1)
	sig, _ := ctrl.Lookup("c", ReduceInput)
	if sig.Ready != HDFSAvailable || sig.NID != 1 || sig.ReadyAt != 20 {
		t.Errorf("SetReady not applied: %+v", sig)
	}
	// Late registration: new query's bit starts done on existing sigs.
	register(regs[0], "d", ReduceInput, []byte("d"), 0)
	q2 := ctrl.addQuery()
	sig, _ = ctrl.Lookup("d", ReduceInput)
	if !sig.doneQueryMask[q2] {
		t.Error("pre-existing caches owe nothing to late queries")
	}
}

// TestDoneMaskGrowsPastItsInlineBits: a signature's done mask is
// inline until more queries register than it holds. Queries registered
// after the engine's caches exist each give every signature a done bit,
// past the inline capacity too, and a cache such a query claims is
// purged only when every bit is done.
func TestDoneMaskGrowsPastItsInlineBits(t *testing.T) {
	eng := mustEngine(t, Config{MR: internalRig(t, 3, 5), Query: internalCountQuery(20*simtime.Second, 10*simtime.Second)})
	ctrl := eng.ctrl
	rins, set := make([]cacheRef, eng.query.NumReducers), eng.paneSet(0, paneTuple{1}, true, true)
	for part := range rins {
		eng.registerAggPart("agg/S1", 1, part, part%3, 0, []byte("in"), []byte("out"), cacheMeta{}, cacheMeta{}, rins, &set)
	}
	sigs := ctrl.Signatures()
	if len(sigs) != 2*len(rins) {
		t.Fatalf("%d signatures, want %d", len(sigs), 2*len(rins))
	}
	last := -1
	for i := 0; i < inlineQueries+3; i++ {
		last = ctrl.addQuery()
	}
	for _, s := range sigs {
		if len(s.doneQueryMask) != last+1 || s.doneQueryMask[eng.qIdx] {
			t.Fatalf("%s: mask %v, want %d bits, the engine's clear", s.PID, s.doneQueryMask, last+1)
		}
		for q := eng.qIdx + 1; q <= last; q++ {
			if !s.doneQueryMask[q] {
				t.Fatalf("%s: late query %d's bit starts clear", s.PID, q)
			}
		}
	}
	claimed := rins[0].pid()
	if _, f := ctrl.acquire([]byte(claimed), ReduceInput, last); f != resident {
		t.Fatalf("claim on %s failed", claimed)
	}
	for _, s := range sigs {
		purged := markDone(ctrl, s.PID, s.Type, eng.qIdx)
		if want := s.PID != claimed || s.Type != ReduceInput; purged != want {
			t.Errorf("%s (%v): purged %v when the engine was done, want %v", s.PID, s.Type, purged, want)
		}
	}
	if !markDone(ctrl, claimed, ReduceInput, last) {
		t.Error("the claiming late query's release did not purge")
	}
	purged := 0
	for _, n := range eng.mr.Cluster.Nodes() {
		purged += ctrl.Registry(n.ID).PurgeExpired()
	}
	if purged != len(sigs) || len(ctrl.Signatures()) != 0 {
		t.Errorf("purged %d caches, %d signatures left; want %d and none", purged, len(ctrl.Signatures()), len(sigs))
	}
	// A cache registered now starts with every query's bit, most done.
	register(ctrl.Registry(0), "after", ReduceOutput, nil, last)
	sig, _ := ctrl.Lookup("after", ReduceOutput)
	if len(sig.doneQueryMask) != last+1 || sig.doneQueryMask[last] || !sig.doneQueryMask[eng.qIdx] {
		t.Errorf("a signature registered past the inline capacity has mask %v", sig.doneQueryMask)
	}
}

// TestPurgeSkipsReplacedRows: a purge removes the rows expired since the
// last one, and only while each is still its cache's row; a cache
// registered again on the node in between keeps what it has now, and
// one evicted before its notice is not listed.
func TestPurgeSkipsReplacedRows(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 1)
	reg := regs[0]
	for _, pid := range []string{"a", "b", "c"} {
		register(reg, pid, ReduceOutput, []byte(pid), 0)
	}
	if reg.Evict("c", ReduceOutput) != 1 {
		t.Fatal("evicting c freed nothing")
	}
	for _, pid := range []string{"a", "b", "c"} {
		markDone(ctrl, pid, ReduceOutput, 0)
		markDone(ctrl, pid, ReduceOutput, 0) // listed once
	}
	register(reg, "b", ReduceOutput, []byte("b2"), 0)
	if n := reg.PurgeExpired(); n != 1 {
		t.Errorf("purged %d, want 1 (a)", n)
	}
	if got, ok := reg.Get("b", ReduceOutput); !ok || string(got) != "b2" {
		t.Errorf("re-added b reads %q, %v after the purge", got, ok)
	}
	if reg.Has("a", ReduceOutput) || len(reg.Entries()) != 1 {
		t.Errorf("after the purge: %+v", reg.Entries())
	}
	if n := reg.PurgeExpired(); n != 0 {
		t.Errorf("a second purge removed %d", n)
	}
}

func TestReadyString(t *testing.T) {
	for r, want := range map[Ready]string{
		NotAvailable: "not-available", HDFSAvailable: "hdfs-available", CacheAvailable: "cache-available",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %s, want %s", int(r), r.String(), want)
		}
	}
}

func TestSignaturesSorted(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 1)
	register(regs[0], "b", ReduceInput, nil, 0)
	register(regs[0], "a", ReduceOutput, nil, 0)
	register(regs[0], "a", ReduceInput, nil, 0)
	sigs := ctrl.Signatures()
	if len(sigs) != 3 || sigs[0].PID != "a" || sigs[0].Type != ReduceInput || sigs[2].PID != "b" {
		t.Errorf("Signatures order wrong: %v", sigs)
	}
}

// TestPurgeNotificationReachesSiblingCopies is the regression test for
// stranded replicas: a cache stored on a second node leaves a copy on
// the first, and a purge notice that reached only the cache's current
// home used to leave that copy resident forever, invisible to any future
// notice once the signature was gone. The copy is expired when the cache
// moves, the home copy by the notice, and both purge.
func TestPurgeNotificationReachesSiblingCopies(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 1)
	reg0, reg1 := regs[0], regs[1]
	reg0.Add("p", ReduceOutput, []byte("data"))
	reg1.Add("p", ReduceOutput, []byte("data"))
	// The signature's home is node 1 — the copy on node 0 is a sibling.
	register(reg1, "p", ReduceOutput, []byte("data"), 0)

	if !markDone(ctrl, "p", ReduceOutput, 0) {
		t.Fatal("purge notification should fire")
	}
	if reg0.PurgeExpired() != 1 {
		t.Error("sibling copy on node 0 was stranded by the purge notification")
	}
	if reg1.PurgeExpired() != 1 {
		t.Error("home copy on node 1 was not expired")
	}
	if reg0.CachedBytes() != 0 || reg1.CachedBytes() != 0 {
		t.Errorf("orphaned bytes after purge: node0=%d node1=%d", reg0.CachedBytes(), reg1.CachedBytes())
	}
}

// TestControllerPurgeHook pins the invalidation seam the reuse index
// hangs on: the purge notice must report the removed (pid, type) to the
// installed hook.
func TestControllerPurgeHook(t *testing.T) {
	ctrl, regs := twoNodeCatalog(t, 1)
	type rm struct {
		pid string
		typ CacheType
	}
	var got []rm
	ctrl.SetPurgeHook(func(pid string, typ CacheType) { got = append(got, rm{pid, typ}) })

	register(regs[0], "a", ReduceOutput, nil, 0)
	register(regs[0], "b", ReduceInput, nil, 0)
	markDone(ctrl, "a", ReduceOutput, 0)
	markDone(ctrl, "ghost", ReduceInput, 0) // unknown pid must not fire the hook

	want := []rm{{"a", ReduceOutput}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("purge hook observed %v, want %v", got, want)
	}
	ctrl.SetPurgeHook(nil)
	if !markDone(ctrl, "b", ReduceInput, 0) || len(got) != 1 {
		t.Fatal("removed hook still fired")
	}
}
