package cluster

import (
	"reflect"
	"testing"

	"redoop/internal/simtime"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{Workers: 4, MapSlots: 6, ReduceSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0, MapSlots: 1, ReduceSlots: 1},
		{Workers: 1, MapSlots: 0, ReduceSlots: 1},
		{Workers: 1, MapSlots: 1, ReduceSlots: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	def := DefaultConfig()
	if def.Workers != 30 || def.MapSlots != 6 || def.ReduceSlots != 2 {
		t.Errorf("DefaultConfig should mirror the paper's testbed, got %+v", def)
	}
}

func TestNodeAccessors(t *testing.T) {
	c := testCluster(t)
	if c.Node(0) == nil || c.Node(3) == nil {
		t.Fatal("nodes 0..3 should exist")
	}
	if c.Node(-1) != nil || c.Node(4) != nil {
		t.Error("out-of-range nodes should be nil")
	}
	if got := c.NodeIDs(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("NodeIDs = %v", got)
	}
	if c.Node(1).Map.Slots() != 6 || c.Node(1).Reduce.Slots() != 2 {
		t.Error("slot counts wrong")
	}
	if c.Config().Workers != 4 {
		t.Error("Config accessor wrong")
	}
}

func TestLocalFS(t *testing.T) {
	c := testCluster(t)
	n := c.Node(0)
	n.PutLocal("cache/S1P1", []byte("data1"))
	n.PutLocal("cache/S1P2", []byte("data22"))
	n.PutLocal("spill/x", []byte("y"))

	if got, ok := n.GetLocal("cache/S1P1"); !ok || string(got) != "data1" {
		t.Errorf("GetLocal = %q, %v", got, ok)
	}
	if _, ok := n.GetLocal("missing"); ok {
		t.Error("missing key should not be found")
	}
	if !n.HasLocal("cache/S1P2") || n.HasLocal("cache/S1P3") {
		t.Error("HasLocal wrong")
	}
	if n.LocalSize("cache/S1P2") != 6 || n.LocalSize("missing") != -1 {
		t.Error("LocalSize wrong")
	}
	if got := n.LocalKeys("cache/"); !reflect.DeepEqual(got, []string{"cache/S1P1", "cache/S1P2"}) {
		t.Errorf("LocalKeys = %v", got)
	}
	if n.LocalBytes() != 5+6+1 {
		t.Errorf("LocalBytes = %d, want 12", n.LocalBytes())
	}
	n.DeleteLocal("cache/S1P1")
	if n.HasLocal("cache/S1P1") {
		t.Error("deleted key still present")
	}
	n.DeleteLocal("cache/S1P1") // idempotent
}

// PutLocal takes ownership: the stored bytes are the caller's buffer,
// not a copy of it, so an exactly-sized encode is stored without a
// second allocation.
func TestPutLocalTakesOwnership(t *testing.T) {
	c := testCluster(t)
	n := c.Node(0)
	buf := []byte("abc")
	n.PutLocal("k", buf)
	got, _ := n.GetLocal("k")
	if string(got) != "abc" || &got[0] != &buf[0] {
		t.Error("PutLocal must store the buffer it is handed, not a copy")
	}
}

// GetLocal hands out a view of immutable stored bytes: replacing or
// deleting the key, or losing the node, must leave an earlier view
// intact.
func TestGetLocalViewSurvivesStoreChanges(t *testing.T) {
	c := testCluster(t)
	n := c.Node(0)
	n.PutLocal("k", []byte("abc"))
	view, _ := n.GetLocal("k")
	n.PutLocal("k", []byte("xyz"))
	if got, _ := n.GetLocal("k"); string(got) != "xyz" {
		t.Errorf("replaced key reads %q", got)
	}
	n.DeleteLocal("k")
	c.FailNode(0)
	if string(view) != "abc" {
		t.Errorf("view changed to %q after replace, delete and node failure", view)
	}
}

func TestLoadAccrual(t *testing.T) {
	c := testCluster(t)
	n := c.Node(2)
	n.AddLoad(3 * simtime.Second)
	n.AddLoad(2 * simtime.Second)
	if got := n.Load(); got != 5*simtime.Second {
		t.Errorf("Load = %v, want 5s", got)
	}
}

func TestFailNodeLosesLocalState(t *testing.T) {
	c := testCluster(t)
	n := c.Node(1)
	n.PutLocal("cache/x", []byte("v"))
	c.FailNode(1)
	if n.Alive() {
		t.Error("failed node should be dead")
	}
	if n.HasLocal("cache/x") {
		t.Error("local data must be lost on node failure")
	}
	n.PutLocal("cache/y", []byte("v"))
	if n.HasLocal("cache/y") {
		t.Error("writes to a dead node must be dropped")
	}
	if got := len(c.AliveNodes()); got != 3 {
		t.Errorf("AliveNodes = %d, want 3", got)
	}
}

func TestReviveNode(t *testing.T) {
	c := testCluster(t)
	c.Node(1).Map.Acquire(0, 100)
	c.FailNode(1)
	c.ReviveNode(1, simtime.Time(500))
	n := c.Node(1)
	if !n.Alive() {
		t.Error("revived node should be alive")
	}
	if got := n.Map.EarliestFree(); got != 500 {
		t.Errorf("revived node slots should free at 500, got %v", got)
	}
}

func TestDropLocal(t *testing.T) {
	c := testCluster(t)
	n := c.Node(0)
	n.PutLocal("cache/a", []byte("1"))
	n.PutLocal("cache/b", []byte("2"))
	n.PutLocal("other", []byte("3"))
	if got := c.DropLocal(0, "cache/"); got != 2 {
		t.Errorf("DropLocal = %d, want 2", got)
	}
	if !n.HasLocal("other") {
		t.Error("non-matching key should survive")
	}
	if c.DropLocal(99, "x") != 0 {
		t.Error("DropLocal on a bad node should be 0")
	}
}
