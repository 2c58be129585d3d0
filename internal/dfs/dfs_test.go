package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// stored is path's block table as the DFS holds it, replica lists included
// (Layout leaves them out), copied, so that a later FailNode shows.
func stored(d *DFS, path string) ([]Block, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	out := slices.Clone(f.blocks)
	for i := range out {
		out[i].Replicas = slices.Clone(out[i].Replicas)
	}
	return out, nil
}

func testConfig() Config {
	return Config{BlockSize: 64, Replication: 3, Nodes: []int{0, 1, 2, 3, 4}, Seed: 1}
}

// newDFS is New for a configuration the test knows is valid.
func newDFS(t testing.TB, cfg Config) *DFS {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{BlockSize: 0, Replication: 3, Nodes: []int{0}},
		{BlockSize: 64, Replication: 0, Nodes: []int{0}},
		{BlockSize: 64, Replication: 3, Nodes: nil},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{BlockSize: 64, Replication: 2, Nodes: []int{1, 1}}); err == nil {
		t.Error("duplicate node IDs should be rejected")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDFS(t, testConfig())
	data := bytes.Repeat([]byte("0123456789"), 20) // 200 bytes, 4 blocks of 64
	if err := d.Write("/a", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read-back mismatch")
	}
	if size, _ := d.Size("/a"); size != 200 {
		t.Errorf("Size = %d, want 200", size)
	}
	if !d.Exists("/a") || d.Exists("/b") {
		t.Error("Exists wrong")
	}
}

func TestBlockLayout(t *testing.T) {
	d := newDFS(t, testConfig())
	data := make([]byte, 200)
	if err := d.Write("/a", data); err != nil {
		t.Fatal(err)
	}
	blocks, err := stored(d, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(blocks))
	}
	wantSizes := []int64{64, 64, 64, 8}
	var off int64
	for i, b := range blocks {
		if b.Index != i || b.Offset != off || b.Size != wantSizes[i] {
			t.Errorf("block %d = %+v, want index %d offset %d size %d", i, b, i, off, wantSizes[i])
		}
		if len(b.Replicas) != 3 {
			t.Errorf("block %d has %d replicas, want 3", i, len(b.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range b.Replicas {
			if seen[r] {
				t.Errorf("block %d has duplicate replica on node %d", i, r)
			}
			seen[r] = true
		}
		off += b.Size
	}
	geometry, size, err := d.Layout(nil, "/a")
	if err != nil || size != 200 || len(geometry) != len(blocks) {
		t.Fatalf("Layout gives %d blocks of a %d-byte file (%v), want %d of 200", len(geometry), size, err, len(blocks))
	}
	for i, b := range geometry {
		if b.Replicas != nil || b.Index != blocks[i].Index || b.Offset != blocks[i].Offset || b.Size != blocks[i].Size {
			t.Errorf("Layout block %d = %+v, want %+v without replicas", i, b, blocks[i])
		}
	}
	if _, _, err := d.Layout(nil, "/missing"); err == nil {
		t.Error("Layout of a missing file should fail")
	}
}

func TestReadBlock(t *testing.T) {
	d := newDFS(t, testConfig())
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	if err := d.Write("/a", data); err != nil {
		t.Fatal(err)
	}
	b1, err := d.ReadBlock("/a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, data[64:]) {
		t.Error("second block content wrong")
	}
	if _, err := d.ReadBlock("/a", 2); err == nil {
		t.Error("out-of-range block should fail")
	}
	if _, err := d.ReadBlock("/nope", 0); err == nil {
		t.Error("missing file should fail")
	}
}

// TestWriteTakesOwnership: the buffer handed to Write (and WriteAt) is
// the stored file — no copy is made on the way in, so the writer's
// exactly-sized encode is the one array every reader views.
func TestWriteTakesOwnership(t *testing.T) {
	d := newDFS(t, testConfig())
	for i, write := range []func(string, []byte) error{
		d.Write,
		func(path string, data []byte) error { return d.WriteAt(path, data, 5) },
	} {
		buf := bytes.Repeat([]byte("0123456789"), 20) // 4 blocks of 64
		if err := write("/owned", buf); err != nil {
			t.Fatal(err)
		}
		view, err := d.Read("/owned")
		if err != nil {
			t.Fatal(err)
		}
		if &view[0] != &buf[0] || len(view) != len(buf) {
			t.Errorf("writer %d: the stored file is not the buffer that was handed over", i)
		}
	}
}

// Stored bytes are never written again, so Read hands out a view of
// them: rewriting the path or deleting it must leave an earlier view
// intact.
func TestReadViewSurvivesRewriteAndDelete(t *testing.T) {
	d := newDFS(t, testConfig())
	if err := d.Write("/a", []byte("first contents")); err != nil {
		t.Fatal(err)
	}
	view, err := d.Read("/a")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := d.Read("/a"); &view[0] != &again[0] {
		t.Error("Read must return a view of the stored bytes, not a copy")
	}
	if err := d.Write("/a", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Read("/a"); string(got) != "second" {
		t.Errorf("rewritten file reads %q", got)
	}
	if err := d.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if string(view) != "first contents" {
		t.Errorf("view changed to %q", view)
	}
	if cap(view) != len(view) {
		t.Error("a view must not leave room to append into the stored file")
	}
}

func TestEmptyFile(t *testing.T) {
	d := newDFS(t, testConfig())
	if err := d.Write("/empty", nil); err != nil {
		t.Fatal(err)
	}
	if !d.Exists("/empty") {
		t.Error("empty file should exist")
	}
	blocks, err := stored(d, "/empty")
	if err != nil || len(blocks) != 0 {
		t.Errorf("empty file should have no blocks, got %d (%v)", len(blocks), err)
	}
}

func TestWriteErrors(t *testing.T) {
	d := newDFS(t, testConfig())
	if err := d.Write("", []byte("x")); err == nil {
		t.Error("empty path should fail")
	}
}

func TestDeleteAndList(t *testing.T) {
	d := newDFS(t, testConfig())
	d.Write("/b", []byte("b"))
	d.Write("/a", []byte("a"))
	got := d.List()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Errorf("List = %v, want sorted [/a /b]", got)
	}
	if err := d.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("/a") {
		t.Error("deleted file still exists")
	}
	if err := d.Delete("/a"); err == nil {
		t.Error("double delete should fail")
	}
}

func TestHasLocalReplica(t *testing.T) {
	d := newDFS(t, testConfig())
	d.Write("/a", make([]byte, 10))
	blocks, _ := stored(d, "/a")
	onReplica := blocks[0].Replicas[0]
	if !d.HasLocalReplica("/a", 0, onReplica) {
		t.Error("replica node should report local")
	}
	// Find a node without a replica (5 nodes, 3 replicas).
	for _, n := range []int{0, 1, 2, 3, 4} {
		has := false
		for _, r := range blocks[0].Replicas {
			if r == n {
				has = true
			}
		}
		if got := d.HasLocalReplica("/a", 0, n); got != has {
			t.Errorf("HasLocalReplica(node %d) = %v, want %v", n, got, has)
		}
	}
	if d.HasLocalReplica("/a", 9, onReplica) || d.HasLocalReplica("/zzz", 0, onReplica) {
		t.Error("bad block/file should report false")
	}
}

func TestFailNodeRereplicates(t *testing.T) {
	d := newDFS(t, testConfig())
	d.Write("/a", make([]byte, 300)) // 5 blocks
	moved := d.FailNode(2)
	if d.Alive(2) {
		t.Error("node 2 should be dead")
	}
	blocks, _ := stored(d, "/a")
	for i, b := range blocks {
		if len(b.Replicas) != 3 {
			t.Errorf("block %d has %d replicas after failure, want 3", i, len(b.Replicas))
		}
		for _, r := range b.Replicas {
			if r == 2 {
				t.Errorf("block %d still lists dead node 2", i)
			}
		}
	}
	// moved should be positive iff node 2 held any replica; with 5
	// blocks × 3 of 5 nodes the chance all missed node 2 is tiny, but
	// assert consistently either way.
	var held int64
	_ = held
	if moved < 0 {
		t.Error("negative re-replication count")
	}
	if got := d.ReplicatedBytes(); got != moved {
		t.Errorf("ReplicatedBytes = %d, want %d", got, moved)
	}
	if d.FailNode(2) != 0 {
		t.Error("failing an already-dead node should move nothing")
	}
}

func TestFailureReducesReplicationWhenNodesExhausted(t *testing.T) {
	d := newDFS(t, Config{BlockSize: 64, Replication: 3, Nodes: []int{0, 1, 2}, Seed: 7})
	d.Write("/a", make([]byte, 64))
	d.FailNode(0)
	blocks, _ := stored(d, "/a")
	if len(blocks[0].Replicas) != 2 {
		t.Errorf("with only 2 alive nodes replication should degrade to 2, got %d", len(blocks[0].Replicas))
	}
	d.ReviveNode(0)
	if !d.Alive(0) {
		t.Error("revived node should be alive")
	}
}

func TestNewWritesPlaceOnAliveNodesOnly(t *testing.T) {
	d := newDFS(t, testConfig())
	d.FailNode(0)
	d.Write("/a", make([]byte, 128))
	blocks, _ := stored(d, "/a")
	for _, b := range blocks {
		for _, r := range b.Replicas {
			if r == 0 {
				t.Fatal("placement used a dead node")
			}
		}
	}
}

func TestTotalBytes(t *testing.T) {
	d := newDFS(t, testConfig())
	d.Write("/a", make([]byte, 100))
	d.Write("/b", make([]byte, 50))
	if got := d.TotalBytes(); got != 150 {
		t.Errorf("TotalBytes = %d, want 150", got)
	}
}

// Property: for any content, blocks tile the file exactly and each
// block has min(replication, nodes) distinct replicas.
func TestBlockTilingProperty(t *testing.T) {
	f := func(n uint16, seed int64) bool {
		d := newDFS(t, Config{BlockSize: 64, Replication: 3, Nodes: []int{0, 1, 2, 3, 4}, Seed: seed})
		data := make([]byte, int(n)%5000)
		if err := d.Write("/f", data); err != nil {
			return false
		}
		blocks, err := stored(d, "/f")
		if err != nil {
			return false
		}
		var off int64
		for _, b := range blocks {
			if b.Offset != off || b.Size <= 0 || b.Size > 64 {
				return false
			}
			if len(b.Replicas) != 3 {
				return false
			}
			off += b.Size
		}
		return off == int64(len(data))
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRereplicationLeavesNeighbouringBlocksAlone: a file's replica lists
// are cut from one array. When FailNode re-replicates one block onto more
// nodes than it was written to, the blocks on either side keep theirs.
func TestRereplicationLeavesNeighbouringBlocksAlone(t *testing.T) {
	d := newDFS(t, Config{BlockSize: 8, Replication: 3, Nodes: []int{0, 1, 2, 3, 4}, Seed: 1})
	for _, n := range []int{2, 3, 4} {
		d.FailNode(n)
	}
	d.Write("/a", make([]byte, 24)) // three blocks, each on nodes 0 and 1 only
	for _, n := range []int{2, 3, 4} {
		d.ReviveNode(n)
	}
	// Only the middle block keeps node 0: the outer two trade it for node
	// 2, in the array the three share.
	for _, i := range []int{0, 2} {
		r := d.files["/a"].blocks[i].Replicas
		r[0] = 2
		sort.Ints(r)
	}
	before, _ := stored(d, "/a")
	d.FailNode(0)
	after, _ := stored(d, "/a")
	for _, i := range []int{0, 2} {
		if !slices.Equal(after[i].Replicas, before[i].Replicas) {
			t.Errorf("block %d: replicas %v became %v as block 1 was re-replicated", i, before[i].Replicas, after[i].Replicas)
		}
	}
	if r := after[1].Replicas; len(r) != 3 || slices.Contains(r, 0) || !slices.IsSorted(r) {
		t.Errorf("block 1 was re-replicated onto %v, want three live nodes in order", r)
	}
}
