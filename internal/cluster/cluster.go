// Package cluster simulates the shared-nothing compute cluster Redoop
// runs on: a set of worker (slave) nodes, each with a fixed number of
// map and reduce task slots, a local file system for intermediate data
// and window-aware caches, and an accumulated-load metric used by the
// cache-aware scheduler's Equation 4.
//
// The paper's testbed is 30 slave nodes plus one master, each worker
// configured for up to 6 concurrent map tasks and 2 concurrent reduce
// tasks; DefaultConfig mirrors that.
package cluster

import (
	"cmp"
	"fmt"
	"sort"
	"sync"

	"redoop/internal/simtime"
)

// Config parameterizes a cluster.
type Config struct {
	// Workers is the number of slave nodes (IDs 0..Workers-1).
	Workers int
	// MapSlots is the number of concurrent map tasks per node.
	MapSlots int
	// ReduceSlots is the number of concurrent reduce tasks per node.
	ReduceSlots int
}

// DefaultConfig mirrors the paper's testbed: 30 workers, 6 map slots and
// 2 reduce slots each.
func DefaultConfig() Config {
	return Config{Workers: 30, MapSlots: 6, ReduceSlots: 2}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("cluster: need at least one worker, got %d", c.Workers)
	}
	if c.MapSlots <= 0 {
		return fmt.Errorf("cluster: map slots must be positive, got %d", c.MapSlots)
	}
	if c.ReduceSlots <= 0 {
		return fmt.Errorf("cluster: reduce slots must be positive, got %d", c.ReduceSlots)
	}
	return nil
}

// Node is one worker. Its slot timelines are manipulated by the
// MapReduce engine during job simulation; its local file system holds
// map spills and Redoop's window-aware caches.
type Node struct {
	ID     int
	Map    *simtime.Timeline
	Reduce *simtime.Timeline

	mu    sync.Mutex
	local map[string][]byte
	busy  simtime.Duration
	alive bool
}

// Alive reports whether the node is up.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// AddLoad accrues busy time onto the node's load metric.
func (n *Node) AddLoad(d simtime.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.busy += d
}

// Load returns the node's accumulated busy time — the Load_i term of
// the paper's Equation 4.
func (n *Node) Load() simtime.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.busy
}

// PutLocal stores data on the node's local file system and takes
// ownership of it: the caller hands over an exactly-sized buffer it
// will never write again (it may keep reading it). Stored bytes are
// never written either — a later PutLocal of the same key replaces the
// map entry, failures and deletes drop it — which is what lets GetLocal
// hand out views.
func (n *Node) PutLocal(key string, data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return // writes to a dead node are lost
	}
	n.local[key] = data
}

// GetLocal retrieves bytes from the node's local file system. The
// result is a read-only view of the stored bytes, not a copy: it stays
// valid and unchanged after the key is replaced, deleted or lost with
// the node, and the caller must not write through it.
func (n *Node) GetLocal(key string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	d, ok := n.local[key]
	return d, ok
}

// HasLocal reports whether a key is present.
func (n *Node) HasLocal(key string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.local[key]
	return ok
}

// LocalSize returns the stored size of a key, or -1 if absent.
func (n *Node) LocalSize(key string) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	d, ok := n.local[key]
	if !ok {
		return -1
	}
	return int64(len(d))
}

// DeleteLocal removes a key; removing an absent key is a no-op (purges
// may race with failures).
func (n *Node) DeleteLocal(key string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.local, key)
}

// LocalKeys returns the node's local keys with the given prefix, sorted.
func (n *Node) LocalKeys(prefix string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for k := range n.local {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// LocalBytes returns the total bytes on the node's local file system.
func (n *Node) LocalBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total int64
	for _, d := range n.local {
		total += int64(len(d))
	}
	return total
}

// Cluster is the set of worker nodes. It is safe for concurrent use at
// the node-state level; slot timelines are owned by the single-threaded
// job simulation.
type Cluster struct {
	cfg   Config
	nodes []*Node
}

// New builds a cluster with all nodes alive and idle.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		m, merr := simtime.NewTimeline(cfg.MapSlots)
		r, rerr := simtime.NewTimeline(cfg.ReduceSlots)
		if err := cmp.Or(merr, rerr); err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &Node{ID: i, Map: m, Reduce: r, local: make(map[string][]byte), alive: true})
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Node returns the node with the given ID, or nil if out of range.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// Nodes returns all nodes in ID order (including dead ones).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// AliveNodes returns the alive nodes in ID order.
func (c *Cluster) AliveNodes() []*Node {
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Alive() {
			out = append(out, n)
		}
	}
	return out
}

// NodeIDs returns the IDs of all configured nodes.
func (c *Cluster) NodeIDs() []int {
	ids := make([]int, len(c.nodes))
	for i := range c.nodes {
		ids[i] = i
	}
	return ids
}

// FailNode marks a node dead and discards its local file system (map
// spills and caches are written only to local disk, so a node failure
// loses them — the failure case Redoop's recovery handles, §5).
func (c *Cluster) FailNode(id int) {
	n := c.Node(id)
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = false
	n.local = make(map[string][]byte)
}

// ReviveNode brings a failed node back, empty and idle from the given
// virtual instant.
func (c *Cluster) ReviveNode(id int, at simtime.Time) {
	n := c.Node(id)
	if n == nil {
		return
	}
	n.mu.Lock()
	n.alive = true
	n.local = make(map[string][]byte)
	n.mu.Unlock()
	n.Map.Reset(at)
	n.Reduce.Reset(at)
}

// DropLocal removes every local key with the given prefix from a node,
// returning how many entries were dropped. The fault-tolerance
// experiment (Fig. 9) uses this to inject cache loss without killing
// the node.
func (c *Cluster) DropLocal(id int, prefix string) int {
	n := c.Node(id)
	if n == nil {
		return 0
	}
	keys := n.LocalKeys(prefix)
	for _, k := range keys {
		n.DeleteLocal(k)
	}
	return len(keys)
}
