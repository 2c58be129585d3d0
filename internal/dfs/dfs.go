// Package dfs simulates the Hadoop Distributed File System that both
// plain-Hadoop and Redoop jobs read from and write to (paper §2.2).
//
// The simulation keeps file contents in memory but preserves the
// structural properties the runtime depends on: files are split into
// fixed-size blocks, each block is replicated on a configurable number
// of data nodes, map splits are block-granular, the scheduler can ask
// which nodes hold a local replica of a split, and a failed data node
// triggers re-replication of its blocks (the availability mechanism the
// paper's fault-tolerance design leans on).
package dfs

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"redoop/internal/account"
	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// Config parameterizes a DFS instance.
type Config struct {
	// BlockSize is the maximum block size in bytes (Hadoop default
	// 64 MB; experiments use smaller blocks at reduced data scale).
	BlockSize int64
	// Replication is the number of replicas per block (paper: 3).
	Replication int
	// Nodes lists the data-node IDs blocks may be placed on.
	Nodes []int
	// Seed drives deterministic pseudo-random replica placement.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("dfs: block size must be positive, got %d", c.BlockSize)
	}
	if c.Replication <= 0 {
		return fmt.Errorf("dfs: replication must be positive, got %d", c.Replication)
	}
	if len(c.Nodes) == 0 {
		return fmt.Errorf("dfs: at least one data node required")
	}
	return nil
}

// Block describes one block of a file.
type Block struct {
	// Index is the block's ordinal within its file.
	Index int
	// Offset is the block's starting byte offset within the file.
	Offset int64
	// Size is the block length in bytes (only the last block of a file
	// may be shorter than the configured block size).
	Size int64
	// Replicas lists the data nodes currently holding the block,
	// sorted ascending.
	Replicas []int
}

// file is one stored file. data is the buffer its writer handed over and
// is never written again — a later write of the path installs a new file
// — which is what lets Read hand out views.
type file struct {
	data   []byte
	blocks []Block
}

// DFS is a simulated distributed file system. It is safe for concurrent
// use.
type DFS struct {
	mu    sync.RWMutex
	cfg   Config
	rng   *rand.Rand
	files map[string]*file
	alive map[int]bool
	// rereplicated accumulates the bytes copied by failure-driven
	// re-replication, for experiment accounting.
	rereplicated int64
	// obs optionally records replication spans; counts is what the
	// file system did since it was attached, which it reads at export.
	obs    *obs.Tracer
	counts *fileCounts
	// transferCost optionally models the virtual duration of moving n
	// bytes between nodes; when set, time-stamped operations (WriteAt,
	// FailNodeAt) record their replication traffic as spans on the
	// ReplicationTrack. The spans are observability-only — DFS transfers
	// happen "in the background" off the task critical path, matching
	// HDFS pipelined writes and namenode-driven re-replication.
	transferCost func(bytes int64) simtime.Duration
	// acct optionally attributes per-path IO bytes to cost-ledger
	// accounts; prefixes maps path prefixes (query data directories)
	// to account names, longest prefix winning. Paths matching no
	// prefix stay unattributed.
	acct     *account.Ledger
	prefixes []prefixRule
}

// fileCounts is what a DFS counts for the metrics exposition: file
// operations and their volumes, the stored files and bytes they leave,
// node failures and the bytes they re-replicated. SetObserver starts new
// counts and hands the observer export, which holds the counts only, so
// a finished runtime's files are not kept alive by them; an observer
// the DFS was swapped away from keeps reading what it counted while
// attached. Reads count under the read lock, so every count is atomic.
type fileCounts struct {
	created, deleted, writes, writeBytes, reads, readBytes atomic.Int64
	bytes, failures, rereplicated                          atomic.Int64
}

// export adds the counts to x: a series each operation touches shows
// once it happened, the stored files and bytes as gauges that sum over
// the file systems an observer was attached to.
func (c *fileCounts) export(x *obs.Exposition) {
	created, deleted, writes := c.created.Load(), c.deleted.Load(), c.writes.Load()
	if writes > 0 {
		x.Add("redoop_dfs_writes_total", float64(writes))
		x.Add("redoop_dfs_write_bytes_total", float64(c.writeBytes.Load()))
	}
	if reads := c.reads.Load(); reads > 0 {
		x.Add("redoop_dfs_reads_total", float64(reads))
		x.Add("redoop_dfs_read_bytes_total", float64(c.readBytes.Load()))
	}
	if deleted > 0 {
		x.Add("redoop_dfs_deletes_total", float64(deleted))
	}
	if created > 0 || deleted > 0 {
		x.AddGauge("redoop_dfs_files", float64(created-deleted))
	}
	if writes > 0 || deleted > 0 {
		x.AddGauge("redoop_dfs_bytes", float64(c.bytes.Load()))
	}
	if failures := c.failures.Load(); failures > 0 {
		x.Add("redoop_dfs_node_failures_total", float64(failures))
		x.Add("redoop_dfs_rereplicated_bytes_total", float64(c.rereplicated.Load()))
	}
}

// prefixRule attributes paths under Prefix to ledger account Query.
type prefixRule struct {
	Prefix string
	Query  string
}

// ReplicationTrack is the trace track DFS replication spans land on.
const ReplicationTrack = "dfs"

// SetTransferCost installs the byte-transfer cost model used to give
// replication traffic a virtual duration in traces; nil disables the
// spans (metrics still accumulate).
func (d *DFS) SetTransferCost(fn func(bytes int64) simtime.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.transferCost = fn
}

// SetObserver attaches the observability layer, which records the
// replication spans and exports the counts kept from here on; nil
// detaches it.
func (d *DFS) SetObserver(o *obs.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obs, d.counts = o, &fileCounts{}
	o.Attach(d.counts.export)
}

// SetAccount attaches the cost ledger IO bytes are attributed to; nil
// detaches it (prefix registrations are kept).
func (d *DFS) SetAccount(l *account.Ledger) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.acct = l
}

// AttributePrefix routes IO on paths under prefix to the named ledger
// account. The longest matching prefix wins, so nested directories may
// carry their own attribution. Re-registering a prefix replaces its
// account.
func (d *DFS) AttributePrefix(prefix, query string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.prefixes {
		if d.prefixes[i].Prefix == prefix {
			d.prefixes[i].Query = query
			return
		}
	}
	d.prefixes = append(d.prefixes, prefixRule{Prefix: prefix, Query: query})
	// Longest-first keeps resolution a simple scan-to-first-match.
	sort.Slice(d.prefixes, func(i, j int) bool {
		if len(d.prefixes[i].Prefix) != len(d.prefixes[j].Prefix) {
			return len(d.prefixes[i].Prefix) > len(d.prefixes[j].Prefix)
		}
		return d.prefixes[i].Prefix < d.prefixes[j].Prefix
	})
}

// accountFor resolves a path's ledger account ("" = unattributed);
// caller holds d.mu (read or write).
func (d *DFS) accountFor(path string) string {
	if d.acct == nil {
		return ""
	}
	for _, r := range d.prefixes {
		if strings.HasPrefix(path, r.Prefix) {
			return r.Query
		}
	}
	return ""
}

// New creates an empty DFS.
func New(cfg Config) (*DFS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	alive := make(map[int]bool, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		alive[n] = true
	}
	if len(alive) != len(cfg.Nodes) {
		return nil, fmt.Errorf("dfs: duplicate node IDs in config")
	}
	cfg.Nodes = append([]int(nil), cfg.Nodes...) // placement walks them in ascending order
	sort.Ints(cfg.Nodes)
	return &DFS{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		files:  make(map[string]*file),
		alive:  alive,
		counts: &fileCounts{},
	}, nil
}

// BlockSize returns the configured block size.
func (d *DFS) BlockSize() int64 { return d.cfg.BlockSize }

// placeReplicas appends up to want distinct alive nodes not in exclude to
// dst, in ascending order (caller holds lock). Placement is uniform
// pseudo-random, standing in for HDFS's rack-aware policy, which the
// experiments do not exercise. The candidates, alive nodes in ascending
// order, are gathered on the stack: one is placed per block written.
func (d *DFS) placeReplicas(dst []int, exclude map[int]bool, want int) []int {
	var buf [32]int
	candidates := buf[:0]
	for _, n := range d.cfg.Nodes {
		if d.alive[n] && !exclude[n] {
			candidates = append(candidates, n)
		}
	}
	d.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	want = min(want, len(candidates))
	dst = append(dst, candidates[:want]...)
	sort.Ints(dst[len(dst)-want:])
	return dst
}

// Write stores data at path, splitting it into blocks and placing
// replicas. It takes ownership of data, as Node.PutLocal does: the buffer
// becomes the stored file and the caller must not write to it again.
// Writing to an existing path replaces it (matching the runtime's "unique
// output path per recurrence" usage; HDFS itself is write-once, which the
// higher layers respect by construction).
func (d *DFS) Write(path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("dfs: empty path")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var replaced int64
	if old, ok := d.files[path]; ok {
		replaced = int64(len(old.data))
	} else {
		d.counts.created.Add(1)
	}
	d.counts.writes.Add(1)
	d.counts.writeBytes.Add(int64(len(data)))
	d.counts.bytes.Add(int64(len(data)) - replaced)
	d.acct.AddIO(d.accountFor(path), account.IODFSWrite, int64(len(data)))
	// The blocks' replica lists are cut from one array, each capped at its
	// length: FailNode's append must not run into the next block's. An
	// empty file has no blocks, but an entry, so Exists/List see it.
	n := int((int64(len(data)) + d.cfg.BlockSize - 1) / d.cfg.BlockSize)
	f := &file{data: data, blocks: make([]Block, 0, n)}
	replicas := make([]int, 0, n*d.cfg.Replication)
	for off := int64(0); off < int64(len(data)); off += d.cfg.BlockSize {
		at := len(replicas)
		replicas = d.placeReplicas(replicas, nil, d.cfg.Replication)
		f.blocks = append(f.blocks, Block{
			Index:    len(f.blocks),
			Offset:   off,
			Size:     min(d.cfg.BlockSize, int64(len(data))-off),
			Replicas: replicas[at:len(replicas):len(replicas)],
		})
	}
	d.files[path] = f
	return nil
}

// WriteAt is Write (data handed over likewise) stamped with the virtual
// instant the data became available: when a transfer-cost model is
// installed, the write's replication fan-out (Replication−1 pipelined
// copies) is recorded as a span on the ReplicationTrack so unseen DFS
// traffic shows up in traces. Virtual timelines are unaffected.
func (d *DFS) WriteAt(path string, data []byte, at simtime.Time) error {
	if err := d.Write(path, data); err != nil {
		return err
	}
	d.mu.RLock()
	cost, o := d.transferCost, d.obs
	copies := int64(d.cfg.Replication) - 1
	if copies > 0 {
		d.acct.AddIO(d.accountFor(path), account.IODFSRepl, int64(len(data))*copies)
	}
	d.mu.RUnlock()
	if cost == nil || o == nil || len(data) == 0 || copies <= 0 {
		return nil
	}
	transferred := int64(len(data)) * copies
	o.Task(obs.TaskSpan{Kind: obs.SpanReplicate, Track: ReplicationTrack,
		Start: at, End: at.Add(cost(transferred)), Input: path, Count: transferred})
	return nil
}

// Read returns the file's contents as a read-only view of the stored
// bytes, not a copy: it stays valid and unchanged after the path is
// rewritten or deleted, and the caller must not write through it (clone
// first to modify).
func (d *DFS) Read(path string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	d.counts.reads.Add(1)
	d.counts.readBytes.Add(int64(len(f.data)))
	d.acct.AddIO(d.accountFor(path), account.IODFSRead, int64(len(f.data)))
	return f.data[:len(f.data):len(f.data)], nil
}

// ReadBlock returns a copy of one block's bytes.
func (d *DFS) ReadBlock(path string, index int) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	if index < 0 || index >= len(f.blocks) {
		return nil, fmt.Errorf("dfs: %q has no block %d", path, index)
	}
	b := f.blocks[index]
	d.counts.reads.Add(1)
	d.counts.readBytes.Add(b.Size)
	d.acct.AddIO(d.accountFor(path), account.IODFSRead, b.Size)
	return append([]byte(nil), f.data[b.Offset:b.Offset+b.Size]...), nil
}

// Layout appends a file's blocks to dst without their replica lists —
// locality is AppendReplicas' to answer, at placement — and returns them
// with the file's size.
func (d *DFS) Layout(dst []Block, path string) ([]Block, int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[path]
	if !ok {
		return dst, 0, fmt.Errorf("dfs: no such file %q", path)
	}
	for _, b := range f.blocks {
		b.Replicas = nil
		dst = append(dst, b)
	}
	return dst, int64(len(f.data)), nil
}

// Size returns the byte length of a file.
func (d *DFS) Size(path string) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[path]
	if !ok {
		return 0, fmt.Errorf("dfs: no such file %q", path)
	}
	return int64(len(f.data)), nil
}

// Exists reports whether path is present.
func (d *DFS) Exists(path string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.files[path]
	return ok
}

// Delete removes a file; deleting a missing file is an error so callers
// notice bookkeeping bugs.
func (d *DFS) Delete(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[path]
	if !ok {
		return fmt.Errorf("dfs: no such file %q", path)
	}
	d.counts.deleted.Add(1)
	d.counts.bytes.Add(-int64(len(f.data)))
	delete(d.files, path)
	return nil
}

// List returns all paths, sorted.
func (d *DFS) List() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.files))
	for p := range d.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// AppendReplicas appends the nodes currently holding a replica of the
// given block to dst, ascending: a placement reads the set once and
// answers every locality question of one task from it. A missing file or
// block appends none.
func (d *DFS) AppendReplicas(dst []int, path string, index int) []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[path]
	if !ok || index < 0 || index >= len(f.blocks) {
		return dst
	}
	return append(dst, f.blocks[index].Replicas...)
}

// FailNode marks a data node dead and re-replicates every block that
// lost a replica onto other alive nodes, restoring the replication
// factor where possible. It returns the number of bytes re-replicated.
// Paths are walked in sorted order so re-replica placement is
// deterministic.
func (d *DFS) FailNode(node int) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.alive[node] {
		return 0
	}
	d.alive[node] = false
	paths := make([]string, 0, len(d.files))
	for p := range d.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var moved int64
	for _, p := range paths {
		f := d.files[p]
		var pathMoved int64
		for i := range f.blocks {
			b := &f.blocks[i]
			kept := b.Replicas[:0]
			lost := false
			for _, r := range b.Replicas {
				if r == node {
					lost = true
				} else {
					kept = append(kept, r)
				}
			}
			b.Replicas = kept
			if !lost {
				continue
			}
			exclude := make(map[int]bool, len(b.Replicas))
			for _, r := range b.Replicas {
				exclude[r] = true
			}
			add := d.placeReplicas(nil, exclude, d.cfg.Replication-len(b.Replicas))
			if len(add) > 0 {
				b.Replicas = append(b.Replicas, add...)
				sort.Ints(b.Replicas)
				pathMoved += b.Size * int64(len(add))
			}
		}
		moved += pathMoved
		// Failure-driven re-replication is billed to the file's owner:
		// the resident bytes whose redundancy the query's data needed
		// restoring.
		d.acct.AddIO(d.accountFor(p), account.IODFSRepl, pathMoved)
	}
	d.rereplicated += moved
	d.counts.failures.Add(1)
	d.counts.rereplicated.Add(moved)
	return moved
}

// FailNodeAt is FailNode stamped with the virtual instant of the
// crash: when a transfer-cost model is installed, the failure-driven
// re-replication traffic is recorded as a span on the ReplicationTrack
// starting at the crash instant. Virtual timelines are unaffected — the
// namenode restores the replication factor in the background.
func (d *DFS) FailNodeAt(node int, at simtime.Time) int64 {
	moved := d.FailNode(node)
	d.mu.RLock()
	cost, o := d.transferCost, d.obs
	d.mu.RUnlock()
	if cost == nil || o == nil || moved == 0 {
		return moved
	}
	o.Task(obs.TaskSpan{Kind: obs.SpanRereplicate, Track: ReplicationTrack,
		Start: at, End: at.Add(cost(moved)), Index: node, Count: moved})
	return moved
}

// ReviveNode marks a previously failed node alive again (empty: its old
// replicas are not restored, matching a node re-joining the cluster).
func (d *DFS) ReviveNode(node int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known := d.alive[node]; known {
		d.alive[node] = true
	}
}

// Alive reports whether a data node is alive.
func (d *DFS) Alive(node int) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.alive[node]
}

// ReplicatedBytes returns the cumulative bytes copied by failure-driven
// re-replication.
func (d *DFS) ReplicatedBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rereplicated
}

// TotalBytes returns the logical size of all files (not counting
// replication).
func (d *DFS) TotalBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int64
	for _, f := range d.files {
		n += int64(len(f.data))
	}
	return n
}
