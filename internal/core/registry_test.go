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

func TestRegistryAddGetPurge(t *testing.T) {
	cl := twoNodeCluster(t)
	reg := NewRegistry(cl.Node(0))
	if reg.NodeID() != 0 {
		t.Fatalf("NodeID = %d", reg.NodeID())
	}
	reg.Add("S1P3/r0", ReduceOutput, []byte("agg"))
	reg.Add("S2P4/r0", ReduceInput, []byte("input"))

	if got, ok := reg.Get("S1P3/r0", ReduceOutput); !ok || string(got) != "agg" {
		t.Errorf("Get = %q, %v", got, ok)
	}
	if !reg.Has("S2P4/r0", ReduceInput) || reg.Has("S2P4/r0", ReduceOutput) {
		t.Error("Has should distinguish cache types")
	}
	if reg.Size("S1P3/r0", ReduceOutput) != 3 || reg.Size("none", ReduceInput) != -1 {
		t.Error("Size wrong")
	}

	// Paper Table 1: S1P3 expired as output cache, S2P4 live as input.
	reg.MarkExpired("S1P3/r0", ReduceOutput)
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

func TestRegistryMarkExpiredUnknownIsNoop(t *testing.T) {
	cl := twoNodeCluster(t)
	reg := NewRegistry(cl.Node(0))
	reg.MarkExpired("ghost", ReduceInput) // must not panic
	if reg.PurgeExpired() != 0 {
		t.Error("nothing should purge")
	}
}

func TestCachedBytes(t *testing.T) {
	cl := twoNodeCluster(t)
	reg := NewRegistry(cl.Node(0))
	reg.Add("a", ReduceInput, []byte("12345"))
	reg.Add("b", ReduceOutput, []byte("123"))
	if got := reg.CachedBytes(); got != 8 {
		t.Errorf("CachedBytes = %d, want 8", got)
	}
	reg.MarkExpired("a", ReduceInput)
	if got := reg.CachedBytes(); got != 3 {
		t.Errorf("CachedBytes after expiry = %d, want 3", got)
	}
}

func TestCacheManagerPeriodicPurge(t *testing.T) {
	cl := twoNodeCluster(t)
	reg := NewRegistry(cl.Node(0))
	m := NewCacheManager(reg)
	m.PurgeCycle = 2

	reg.Add("x", ReduceInput, []byte("x"))
	reg.MarkExpired("x", ReduceInput)
	if n := m.Tick(); n != 0 {
		t.Errorf("tick 1 should not purge (cycle=2), purged %d", n)
	}
	if n := m.Tick(); n != 1 {
		t.Errorf("tick 2 should purge, purged %d", n)
	}
	if m.TotalPurged() != 1 {
		t.Errorf("TotalPurged = %d", m.TotalPurged())
	}
}

func TestCacheManagerOnDemandPurge(t *testing.T) {
	cl := twoNodeCluster(t)
	reg := NewRegistry(cl.Node(0))
	m := NewCacheManager(reg)
	m.PurgeCycle = 100 // periodic effectively off
	m.DiskLimit = 4

	reg.Add("big", ReduceInput, []byte("0123456789"))
	reg.MarkExpired("big", ReduceInput)
	if n := m.Tick(); n != 1 {
		t.Errorf("on-demand purge should fire over the disk limit, purged %d", n)
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
	ctrl := NewController()
	q1 := ctrl.RegisterQuery("Q1")
	q2 := ctrl.RegisterQuery("Q2")
	if got := ctrl.Queries(); len(got) != 2 || got[0] != "Q1" {
		t.Fatalf("Queries = %v", got)
	}

	sig := ctrl.Register("S1P1/r0", ReduceInput, 3, CacheAvailable, simtime.Time(7), 100, []int{q1})
	mask := sig.doneQueryMask
	if mask[q1] || !mask[q2] {
		t.Errorf("mask = %v: used query bit must be 0, unused 1 (paper init)", mask)
	}

	got, ok := ctrl.Lookup("S1P1/r0", ReduceInput)
	if !ok || got.NID != 3 || got.Ready != CacheAvailable || got.Bytes != 100 || got.ReadyAt != simtime.Time(7) {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := ctrl.Lookup("nope", ReduceInput); ok {
		t.Error("missing signature should not resolve")
	}
}

func TestControllerReRegisterPreservesOtherClaims(t *testing.T) {
	ctrl := NewController()
	q1 := ctrl.RegisterQuery("Q1")
	q2 := ctrl.RegisterQuery("Q2")
	ctrl.Register("shared", ReduceInput, 0, CacheAvailable, 0, 10, []int{q1})
	ctrl.Register("shared", ReduceInput, 1, CacheAvailable, 5, 20, []int{q2})
	sig, _ := ctrl.Lookup("shared", ReduceInput)
	mask := sig.doneQueryMask
	if mask[q1] || mask[q2] {
		t.Errorf("both claims should persist across re-register, mask = %v", mask)
	}
	if sig.NID != 1 || sig.Bytes != 20 {
		t.Error("re-register should refresh location and size")
	}
}

func TestControllerPurgeNotification(t *testing.T) {
	cl := twoNodeCluster(t)
	ctrl := NewController()
	q1 := ctrl.RegisterQuery("Q1")
	q2 := ctrl.RegisterQuery("Q2")
	reg := NewRegistry(cl.Node(0))
	ctrl.AttachRegistry(reg)

	reg.Add("p", ReduceOutput, []byte("d"))
	ctrl.Register("p", ReduceOutput, 0, CacheAvailable, 0, 1, []int{q1, q2})

	if ctrl.MarkQueryDone("p", ReduceOutput, q1) {
		t.Error("purge must wait for every using query")
	}
	if !ctrl.MarkQueryDone("p", ReduceOutput, q2) {
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

func TestControllerClaimUser(t *testing.T) {
	ctrl := NewController()
	q1 := ctrl.RegisterQuery("Q1")
	q2 := ctrl.RegisterQuery("Q2")
	ctrl.Register("c", ReduceInput, 0, CacheAvailable, 0, 1, []int{q1})
	if !ctrl.ClaimUser("c", ReduceInput, q2) {
		t.Error("claim on known cache should succeed")
	}
	ctrl.MarkQueryDone("c", ReduceInput, q1)
	if _, ok := ctrl.Lookup("c", ReduceInput); !ok {
		t.Error("cache claimed by q2 must survive q1's release")
	}
	if ctrl.ClaimUser("ghost", ReduceInput, q1) {
		t.Error("claim on unknown cache should fail")
	}
}

func TestControllerSetReady(t *testing.T) {
	ctrl := NewController()
	q := ctrl.RegisterQuery("Q")
	ctrl.Register("c", ReduceInput, 0, CacheAvailable, 10, 5, []int{q})
	ctrl.SetReady("c", ReduceInput, HDFSAvailable, 20, 1)
	sig, _ := ctrl.Lookup("c", ReduceInput)
	if sig.Ready != HDFSAvailable || sig.NID != 1 || sig.ReadyAt != 20 {
		t.Errorf("SetReady not applied: %+v", sig)
	}
	// Late registration: new query's bit starts done on existing sigs.
	ctrl.Register("d", ReduceInput, 0, CacheAvailable, 0, 1, []int{q})
	q2 := ctrl.RegisterQuery("Q2")
	sig, _ = ctrl.Lookup("d", ReduceInput)
	if !sig.doneQueryMask[q2] {
		t.Error("pre-existing caches owe nothing to late queries")
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
	ctrl := NewController()
	q := ctrl.RegisterQuery("Q")
	ctrl.Register("b", ReduceInput, 0, CacheAvailable, 0, 1, []int{q})
	ctrl.Register("a", ReduceOutput, 0, CacheAvailable, 0, 1, []int{q})
	ctrl.Register("a", ReduceInput, 0, CacheAvailable, 0, 1, []int{q})
	sigs := ctrl.Signatures()
	if len(sigs) != 3 || sigs[0].PID != "a" || sigs[0].Type != ReduceInput || sigs[2].PID != "b" {
		t.Errorf("Signatures order wrong: %v", sigs)
	}
}

// TestPurgeNotificationReachesSiblingCopies is the regression test for
// stranded replicas: cross-query reuse (and recovery re-homing) leaves
// copies of one pid on several nodes, and the purge notification used
// to reach only the signature's current home — the other copies stayed
// resident forever, invisible to any future notice once the signature
// was gone. MarkQueryDone must expire the pid on every attached
// registry.
func TestPurgeNotificationReachesSiblingCopies(t *testing.T) {
	cl := twoNodeCluster(t)
	ctrl := NewController()
	q := ctrl.RegisterQuery("Q1")
	reg0, reg1 := NewRegistry(cl.Node(0)), NewRegistry(cl.Node(1))
	ctrl.AttachRegistry(reg0)
	ctrl.AttachRegistry(reg1)

	reg0.Add("p", ReduceOutput, []byte("data"))
	reg1.Add("p", ReduceOutput, []byte("data"))
	// The signature's home is node 1 — the copy on node 0 is a sibling.
	ctrl.Register("p", ReduceOutput, 1, CacheAvailable, 0, 4, []int{q})

	if !ctrl.MarkQueryDone("p", ReduceOutput, q) {
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
// hangs on: the MarkQueryDone purge must report the removed (pid, type)
// to the installed hook.
func TestControllerPurgeHook(t *testing.T) {
	ctrl := NewController()
	q := ctrl.RegisterQuery("Q1")
	type rm struct {
		pid string
		typ CacheType
	}
	var got []rm
	ctrl.SetPurgeHook(func(pid string, typ CacheType) { got = append(got, rm{pid, typ}) })

	ctrl.Register("a", ReduceOutput, 0, CacheAvailable, 0, 1, []int{q})
	ctrl.Register("b", ReduceInput, 0, CacheAvailable, 0, 1, []int{q})
	ctrl.MarkQueryDone("a", ReduceOutput, q)
	ctrl.MarkQueryDone("ghost", ReduceInput, q) // unknown pid must not fire the hook

	want := []rm{{"a", ReduceOutput}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("purge hook observed %v, want %v", got, want)
	}
	ctrl.SetPurgeHook(nil)
	if !ctrl.MarkQueryDone("b", ReduceInput, q) || len(got) != 1 {
		t.Fatal("removed hook still fired")
	}
}
