package core

import (
	"testing"

	"redoop/internal/cluster"
	"redoop/internal/iocost"
	"redoop/internal/simtime"
)

func testScheduler(t *testing.T, workers int) (*Scheduler, *cluster.Cluster) {
	t.Helper()
	cl := newCluster(t, cluster.Config{Workers: workers, MapSlots: 2, ReduceSlots: 1})
	return NewScheduler(cl, iocost.Default()), cl
}

func TestHomeNodeStableAndSpread(t *testing.T) {
	s, _ := testScheduler(t, 3)
	h0, _ := s.HomeNode(0)
	h1, _ := s.HomeNode(1)
	h2, _ := s.HomeNode(2)
	if h0 == nil || h1 == nil || h2 == nil {
		t.Fatal("homes must be assigned")
	}
	// Three partitions over three nodes spread one per node.
	ids := map[int]bool{h0.ID: true, h1.ID: true, h2.ID: true}
	if len(ids) != 3 {
		t.Errorf("homes should spread across nodes, got %v", s.homes)
	}
	// Stability across calls.
	if h, reassigned := s.HomeNode(0); h.ID != h0.ID || reassigned {
		t.Error("home assignment must be stable")
	}
}

func TestHomeNodeReassignsOnDeath(t *testing.T) {
	s, cl := testScheduler(t, 2)
	h, reassigned := s.HomeNode(0)
	if reassigned {
		t.Error("a first assignment is not a reassignment")
	}
	cl.FailNode(h.ID)
	h2, reassigned := s.HomeNode(0)
	if h2 == nil || h2.ID == h.ID || !reassigned {
		t.Errorf("dead home should be replaced and reported, got %v (reassigned %v)", h2, reassigned)
	}
}

func TestPickCacheTaskNodePrefersCacheLocality(t *testing.T) {
	s, _ := testScheduler(t, 4)
	caches := []CacheLoc{{Node: 2, Bytes: 64 << 20}}
	p := s.PickCacheTaskNode(0, caches, false)
	if p.Node.ID != 2 || p.Outcome != "cache-local" || p.Caches != 1 {
		t.Errorf("idle cluster: task should go to the cache's node, got %+v", p)
	}
	if p.Candidates != nil {
		t.Error("candidates returned without an audit")
	}
	if p = s.PickCacheTaskNode(0, caches, true); len(p.Candidates) != 4 || p.Candidates[2].Total != p.Candidates[2].CacheCost {
		t.Errorf("audit = %+v, want four idle candidates", p.Candidates)
	}
}

// Paper §4.3: "if all task slots of a node have been taken, the
// scheduler assigns the new task to a different node even if a fully
// loaded node has the desired cache available."
func TestPickCacheTaskNodeAvoidsLoadedCacheNode(t *testing.T) {
	s, cl := testScheduler(t, 3)
	// Node 1 holds the cache but its only reduce slot is busy for a
	// long time.
	cl.Node(1).Reduce.Acquire(0, 10*simtime.Minute)
	caches := []CacheLoc{{Node: 1, Bytes: 1 << 20}} // small cache, cheap to move
	p := s.PickCacheTaskNode(0, caches, false)
	if p.Node.ID == 1 || p.Outcome != "load-balanced" {
		t.Errorf("scheduler should avoid the fully loaded cache node for a small cache, got node %d (%s)", p.Node.ID, p.Outcome)
	}
}

func TestPickCacheTaskNodeWeighsCacheSizeAgainstWait(t *testing.T) {
	s, cl := testScheduler(t, 2)
	// Node 0 busy briefly; the cache is huge, so waiting beats moving.
	cl.Node(0).Reduce.Acquire(0, 2*simtime.Second)
	caches := []CacheLoc{{Node: 0, Bytes: 4 << 30}} // 4 GB
	n := s.PickCacheTaskNode(0, caches, false).Node
	if n.ID != 0 {
		t.Error("a short wait should be preferred over moving 4GB across the network")
	}
}

func TestPickCacheTaskNodeNoAliveNodes(t *testing.T) {
	s, cl := testScheduler(t, 1)
	cl.FailNode(0)
	if s.PickCacheTaskNode(0, nil, false).Node != nil {
		t.Error("no alive nodes should yield nil")
	}
}

func TestCacheCostLocalVsRemote(t *testing.T) {
	s, _ := testScheduler(t, 2)
	caches := []CacheLoc{{Node: 0, Bytes: 1 << 20}, {Node: 1, Bytes: 1 << 20}}
	c0 := s.CacheCost(0, caches)
	// One cache local, one remote from either side: symmetric.
	if c1 := s.CacheCost(1, caches); c0 != c1 {
		t.Errorf("symmetric layout should cost equally: %v vs %v", c0, c1)
	}
	allLocal := s.CacheCost(0, []CacheLoc{{Node: 0, Bytes: 2 << 20}})
	if allLocal >= c0 {
		t.Error("fully local cache set should cost less than a mixed one")
	}
}

// Eq. 4's documented contract: ties break toward the lower node ID.
// A fail/recover cycle must not let candidate ordering pick a higher
// ID when costs are equal.
func TestPickCacheTaskNodeTieBreaksOnLowerID(t *testing.T) {
	s, cl := testScheduler(t, 3)
	// All idle, no caches: every node costs 0 — the tie must go to 0.
	if n := s.PickCacheTaskNode(0, nil, false).Node; n.ID != 0 {
		t.Fatalf("idle tie should pick node 0, got %d", n.ID)
	}
	// Fail and revive the winner so its alive-set position could have
	// changed; the tie must still resolve to the lowest ID.
	cl.FailNode(0)
	cl.ReviveNode(0, 0)
	if n := s.PickCacheTaskNode(0, nil, false).Node; n.ID != 0 {
		t.Errorf("tie after fail/recover should still pick node 0, got %d", n.ID)
	}
	// Two symmetric cache holders (nodes 1 and 2) tie on cost; the
	// lower ID must win regardless of its own fail/recover history.
	cl.FailNode(1)
	cl.ReviveNode(1, 0)
	caches := []CacheLoc{{Node: 1, Bytes: 1 << 20}, {Node: 2, Bytes: 1 << 20}}
	if n := s.PickCacheTaskNode(0, caches, false).Node; n.ID != 1 {
		t.Errorf("symmetric cache tie should pick node 1, got %d", n.ID)
	}
}

// The cache-oblivious ablation switch must make PickCacheTaskNode
// ignore locality entirely.
func TestPickCacheTaskNodeOblivious(t *testing.T) {
	s, cl := testScheduler(t, 3)
	s.CacheOblivious = true
	// Node 2 holds a huge cache, but node 0 has the earliest slot
	// because the others are busy.
	cl.Node(1).Reduce.Acquire(0, simtime.Minute)
	cl.Node(2).Reduce.Acquire(0, simtime.Minute)
	n := s.PickCacheTaskNode(0, []CacheLoc{{Node: 2, Bytes: 8 << 30}}, false).Node
	if n.ID != 0 {
		t.Errorf("oblivious placement should pick the earliest slot (node 0), got %d", n.ID)
	}
	// With the switch off, the giant cache wins.
	s.CacheOblivious = false
	n = s.PickCacheTaskNode(0, []CacheLoc{{Node: 2, Bytes: 8 << 30}}, false).Node
	if n.ID != 2 {
		t.Errorf("cache-aware placement should pick the cache's node, got %d", n.ID)
	}
}
