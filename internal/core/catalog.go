package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"redoop/internal/cluster"
	"redoop/internal/simtime"
)

// CacheType distinguishes the two cache stages Redoop maintains on task
// nodes (paper §4): the reduce input cache (shuffled, pre-group
// partition data per pane) and the reduce output cache (per-pane or
// per-pane-pair reduce results).
type CacheType int

const (
	// ReduceInput is type 1 in the paper's local cache registry.
	ReduceInput CacheType = 1
	// ReduceOutput is type 2.
	ReduceOutput CacheType = 2
)

// String names the cache type.
func (t CacheType) String() string {
	switch t {
	case ReduceInput:
		return "reduce-input"
	case ReduceOutput:
		return "reduce-output"
	default:
		return fmt.Sprintf("CacheType(%d)", int(t))
	}
}

// Ready is the availability state of a data partition in the
// window-aware cache controller (paper §4.2): 0 not available, 1
// available in HDFS (raw pane file only), 2 cached on a task node's
// local file system.
type Ready int

const (
	NotAvailable   Ready = 0
	HDFSAvailable  Ready = 1
	CacheAvailable Ready = 2
)

// String names the ready state.
func (r Ready) String() string {
	switch r {
	case NotAvailable:
		return "not-available"
	case HDFSAvailable:
		return "hdfs-available"
	case CacheAvailable:
		return "cache-available"
	default:
		return fmt.Sprintf("Ready(%d)", int(r))
	}
}

// cacheDir is the node-local directory of a stage's caches.
func cacheDir(typ CacheType) string {
	if typ == ReduceInput {
		return "cache/rin/"
	}
	return "cache/rout/"
}

// cacheKey builds a cache's node-local file-system key, "cache/rin/<pid>"
// or "cache/rout/<pid>", as the one string a registration of its own
// makes: the PID it returns is the key's suffix and shares its bytes.
func cacheKey(pid []byte, typ CacheType) (key, pidStr string) {
	key = cacheDir(typ) + string(pid)
	return key, key[len(key)-len(pid):]
}

// Signature is one cache signature row of the window-aware cache
// controller (paper Table 2): where a cache lives, whether it is
// usable, and the per-query done mask that drives purge notifications.
type Signature struct {
	PID   string
	NID   int
	Type  CacheType
	Ready Ready
	// ReadyAt is the virtual instant the cache became usable; reduce
	// tasks consuming it cannot start earlier.
	ReadyAt simtime.Time
	// Bytes is the cache's size, used by the cache-aware scheduler's
	// C_task cost term.
	Bytes int64
	// doneQueryMask has one bit per registered query; a set bit means
	// that query no longer needs this cache. It is a slice of inline
	// until more queries register than inline holds.
	doneQueryMask []bool
	inline        [inlineQueries]bool
}

// inlineQueries is how many queries a signature's done mask holds
// without an allocation of its own: sixteen fill a cacheRecord's size
// class, 128 bytes.
const inlineQueries = 16

// RegistryEntry is one row of the local cache registry (paper Table 1):
// which pane is cached, at which stage, and whether any window
// operation still needs it.
type RegistryEntry struct {
	PID     string
	Type    CacheType
	Expired bool
}

// entryKey is a cache's identity in the catalog: its PID and its stage,
// compared by value.
type entryKey struct {
	pid string
	typ CacheType
}

// rowState is what a record's node holds of it.
type rowState uint8

const (
	noRow      rowState = iota // nothing: evicted, purged, or replaced by a newer row
	liveRow                    // a registry row and the cache's bytes
	expiredRow                 // a row waiting for the node's purge
)

// cacheRecord is one cache in the catalog: its signature, the
// node-local key its bytes are stored under (the PID is the key's
// suffix) and what its node holds of it. A record planted by
// Registry.Add is a row with no signature until a registration signs
// it; a signed record whose row was evicted stays a signature.
type cacheRecord struct {
	Signature
	key    string
	signed bool
	row    rowState
}

// newRecord is the record of a cache registered alone (a rebuild, a
// reuse copy): two objects, its key string and the record.
func newRecord(pid []byte, typ CacheType) *cacheRecord {
	key, pidStr := cacheKey(pid, typ)
	return &cacheRecord{Signature: Signature{PID: pidStr, Type: typ}, key: key}
}

// cacheSet holds the records of caches sharing one lifetime, by
// partition: a new aggregation pane's reduce inputs and outputs, a join
// source pane's reduce inputs, a join tuple's outputs. The records are
// one array and their keys one string (Engine.paneSet), so a set of n
// caches allocates two objects where n registrations of their own would
// make 2n. A record and a key (a PID is its key's suffix) keep the whole
// set alive until its last sibling is purged: after a partial loss, an
// eviction or a re-registration, at most one pane's.
type cacheSet struct {
	rin, rout []cacheRecord
}

// Controller is the cache catalog: the paper's window-aware cache
// controller on the master (§4.2, Table 2) and every task node's local
// cache registry (§4.1, Table 1) as one table of records, one per
// cache, under one lock. The paper keeps two tables in step by
// heartbeat because they sit on different machines; here a node's
// registry is a view of the catalog (Registry), and the only state kept
// per node is the list of copies waiting for its purge. The catalog
// reports nothing itself: every transition it makes is committed by the
// engine that asked for it.
type Controller struct {
	mu      sync.Mutex
	queries int              // registered, each a bit of every done mask
	groups  map[string][]int // cache-sharing groups: scope -> query indices
	recs    map[entryKey]*cacheRecord
	nodes   []*Registry // the views, by node ID, each made once

	// The hook, when set, observes every ready-state change. It runs
	// under the catalog lock: it records and returns, never calling back
	// into the catalog.
	onTransition func(pid string, typ CacheType, from, to Ready)
}

// NewController builds an empty catalog.
func NewController() *Controller {
	return &Controller{groups: make(map[string][]int), recs: make(map[entryKey]*cacheRecord)}
}

// Registry is one task node's local cache registry (paper §4.1, Table
// 1), a view of the catalog: the records living on the node and the
// copies waiting for its purge, which the node's Local Cache Manager
// deletes once per recurrence (PurgeExpired). The catalog's lock guards
// both.
type Registry struct {
	c    *Controller
	node *cluster.Node
	// purge lists the copies expired on the node since its last purge:
	// the records a purge notice expired, and the copy a cache left
	// behind when it was registered on another node (re-homing). A copy
	// a newer row of the same cache replaced is no longer expiredRow,
	// and the purge skips it.
	purge []*cacheRecord
}

// NewRegistry builds a registry for one node, a view over a catalog of
// its own.
func NewRegistry(node *cluster.Node) *Registry {
	return NewController().view(node)
}

// view returns the catalog's registry of node, made on first use.
func (c *Controller) view(node *cluster.Node) *Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.nodes) <= node.ID {
		c.nodes = append(c.nodes, nil)
	}
	if c.nodes[node.ID] == nil {
		c.nodes[node.ID] = &Registry{c: c, node: node}
	}
	return c.nodes[node.ID]
}

// Registry returns a node's registry, nil for a node no engine of the
// catalog has.
func (c *Controller) Registry(node int) *Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked(node)
}

func (c *Controller) viewLocked(node int) *Registry {
	if node < 0 || node >= len(c.nodes) {
		return nil
	}
	return c.nodes[node]
}

// SetTransitionHook installs (or, with nil, removes) an observer of
// every signature ready-state change, registration refreshes included.
// The §5-legal transitions are upgrades/refreshes (to ≥ from) and the
// cache-loss rollback CacheAvailable→HDFSAvailable; verification
// tooling uses the hook to flag anything else.
func (c *Controller) SetTransitionHook(fn func(pid string, typ CacheType, from, to Ready)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onTransition = fn
}

// setReadyLocked moves r to ready, reporting the change to the hook.
func (c *Controller) setReadyLocked(r *cacheRecord, ready Ready) {
	if c.onTransition != nil {
		c.onTransition(r.PID, r.Type, r.Ready, ready)
	}
	r.Ready = ready
}

// addQuery adds a query to the catalog and returns its bit index in
// every signature's doneQueryMask. Adding a query after caches exist
// marks its bit done on them (the cache predates the query and is not
// owed to it).
func (c *Controller) addQuery() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.recs {
		if r.signed {
			r.doneQueryMask = append(r.doneQueryMask, true)
		}
	}
	c.queries++
	return c.queries - 1
}

// JoinGroup adds query q to a cache-sharing group. Caches registered
// with the group's full membership as users are purged only when every
// member releases them (the doneQueryMask semantics of §4.2).
func (c *Controller) JoinGroup(group string, q int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !slices.Contains(c.groups[group], q) {
		c.groups[group] = append(c.groups[group], q)
	}
}

// Group returns a cache-sharing group's member query indices.
func (c *Controller) Group(group string) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.groups[group]...)
}

// placeLocked stores data as rec's cache on r's node and returns the
// catalog's record of it: the one the catalog has, or rec. A cache on
// another node moves here and leaves its old copy on that node's purge
// list (re-homing: a cache rebuilt elsewhere would otherwise strand its
// old bytes, unexpired and invisible to every future purge notice); a
// copy of it waiting for this node's purge is replaced.
func (r *Registry) placeLocked(rec *cacheRecord, data []byte) *cacheRecord {
	cur := r.c.recs[entryKey{rec.PID, rec.Type}]
	if cur == nil {
		cur = rec
		r.c.recs[entryKey{rec.PID, rec.Type}] = cur
	} else if old := r.c.viewLocked(cur.NID); cur.NID != r.node.ID && cur.row == liveRow && old != nil {
		old.purge = append(old.purge, &cacheRecord{Signature: Signature{PID: cur.PID, NID: cur.NID, Type: cur.Type}, key: cur.key, row: expiredRow})
	}
	for _, cp := range r.purge {
		if cp.row == expiredRow && cp.key == cur.key {
			cp.row = noRow
		}
	}
	cur.NID, cur.row = r.node.ID, liveRow
	r.node.PutLocal(cur.key, data)
	return cur
}

// Add stores a cache's bytes on the node with a registry row and no
// signature, taking ownership of data: the caller must not write it
// again. A cache the catalog has keeps its signature and moves here.
func (r *Registry) Add(pid string, typ CacheType, data []byte) {
	var buf pidBuf
	rec := newRecord(append(buf[:0], pid...), typ)
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	r.placeLocked(rec, data)
}

// register stores data as rec's cache on node and signs it:
// cache-available from readyAt, claimed for users (read, not kept); all
// other queries' bits start done, as in the paper's initialization. rec
// names the cache, a cacheSet's or newRecord's; a cache the catalog has
// (a shared source cache a sibling query made, a cache rebuilt after
// loss) keeps its record and its other queries' claims, and rec goes
// unused. It returns the node-local key of the bytes.
func (c *Controller) register(node int, rec *cacheRecord, readyAt simtime.Time, data []byte, users []int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.viewLocked(node).placeLocked(rec, data)
	if !cur.signed { // NotAvailable until now
		cur.signed, cur.doneQueryMask = true, cur.inline[:0]
		for range c.queries {
			cur.doneQueryMask = append(cur.doneQueryMask, true)
		}
	}
	c.setReadyLocked(cur, CacheAvailable)
	cur.ReadyAt, cur.Bytes = readyAt, int64(len(data))
	for _, q := range users {
		claimLocked(cur, q)
	}
	return cur.key
}

// claimLocked clears query q's done bit on r, delaying its purge until
// q releases it with markQueryDone.
func claimLocked(r *cacheRecord, q int) {
	if q >= 0 && q < len(r.doneQueryMask) {
		r.doneQueryMask[q] = false
	}
}

// signedLocked returns the signed record of a cache, nil when it has
// none. The PID's bytes may be on the caller's stack: the map index
// converts them without a copy.
func (c *Controller) signedLocked(pid []byte, typ CacheType) *cacheRecord {
	if r := c.recs[entryKey{string(pid), typ}]; r != nil && r.signed {
		return r
	}
	return nil
}

// Lookup returns the signature for a cache, if any.
func (c *Controller) Lookup(pid string, typ CacheType) (*Signature, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.recs[entryKey{pid, typ}]; r != nil && r.signed {
		return &r.Signature, true
	}
	return nil, false
}

// found is what a cache lookup found.
type found uint8

const (
	unknown  found = iota // no signature
	unready               // a signature that is not cache-available
	lost                  // cache-available, but the bytes are gone from its node
	resident              // cache-available, the bytes on its node
)

// findLocked looks a cache up: its signed record, nil when unknown, and
// whether it is usable.
func (c *Controller) findLocked(pid []byte, typ CacheType) (*cacheRecord, found) {
	r := c.signedLocked(pid, typ)
	switch {
	case r == nil:
		return nil, unknown
	case r.Ready != CacheAvailable:
		return r, unready
	}
	if v := c.viewLocked(r.NID); r.row != liveRow || v == nil || !v.node.HasLocal(r.key) {
		return r, lost
	}
	return r, resident
}

// ref is the reference a reader of r's cache carries: the key it
// resolved, so reading the bytes (Engine.cacheBytes) probes the node
// alone.
func (r *cacheRecord) ref() cacheRef {
	return cacheRef{key: r.key, typ: r.Type, node: r.NID, readyAt: r.ReadyAt, bytes: r.Bytes}
}

// acquire looks a cache up for query q in one critical section: a
// resident cache is claimed for q, and a lost one, cache-available
// without its bytes on its node, rolls back to HDFS-available (§5: the
// loss is discovered lazily, here, at the trigger). The reference names
// a found cache by its record's stored key.
func (c *Controller) acquire(pid []byte, typ CacheType, q int) (cacheRef, found) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, f := c.findLocked(pid, typ)
	switch f {
	case unknown, unready:
		return cacheRef{}, f
	case lost:
		c.setReadyLocked(r, HDFSAvailable)
	case resident:
		claimLocked(r, q)
	}
	return r.ref(), f
}

// resolve is acquire without its side effects: a cache's reference when
// it is resident, for a reader that neither claims it nor owns its
// signature, or a prediction of what a lookup will find.
func (c *Controller) resolve(pid []byte, typ CacheType) (cacheRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, f := c.findLocked(pid, typ); f == resident {
		return r.ref(), true
	}
	return cacheRef{}, false
}

// byPID orders the catalog's reports: by pid, then type.
func byPID(a string, at CacheType, b string, bt CacheType) int {
	return cmp.Or(strings.Compare(a, b), cmp.Compare(at, bt))
}

// Signatures returns all signatures sorted by pid then type.
func (c *Controller) Signatures() []*Signature {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Signature, 0, len(c.recs))
	for _, r := range c.recs {
		if r.signed {
			out = append(out, &r.Signature)
		}
	}
	slices.SortFunc(out, func(a, b *Signature) int { return byPID(a.PID, a.Type, b.PID, b.Type) })
	return out
}

// markQueryDone sets query q's bit on a cache's doneQueryMask. When the
// mask fills, the catalog sends its purge notification: the signature
// leaves the catalog and its row, expired, goes on its node's purge
// list (the node deletes it on its next purge). It returns the purged
// signature, nil when no notification was sent; its fields no longer
// change.
func (c *Controller) markQueryDone(pid []byte, typ CacheType, q int) *Signature {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.signedLocked(pid, typ); r != nil && c.markDoneLocked(r, q) {
		return &r.Signature
	}
	return nil
}

// markDoneLocked is markQueryDone on record r.
func (c *Controller) markDoneLocked(r *cacheRecord, q int) bool {
	if q >= 0 && q < len(r.doneQueryMask) {
		r.doneQueryMask[q] = true
	}
	if slices.Contains(r.doneQueryMask, false) {
		return false
	}
	delete(c.recs, entryKey{r.PID, r.Type})
	if v := c.viewLocked(r.NID); r.row == liveRow && v != nil {
		r.row = expiredRow
		v.purge = append(v.purge, r)
	}
	return true
}

// NodeID returns the node's ID.
func (r *Registry) NodeID() int { return r.node.ID }

// Get loads a cached entry's bytes from the node's local file system.
// The second result is false when the cache is absent — either never
// created here or lost to a failure; callers treat that as a cache miss
// and trigger recovery. Only a row's placement writes a cache's bytes
// and every removal of a row deletes them, so bytes under the cache's
// key are its row's. Ownership: Add takes the writer's bytes over and
// they are immutable from then on, so Get returns a read-only view, not
// a copy. The view outlives expiry, eviction, re-registration and node
// loss of the entry unchanged; the caller must not write through it.
func (r *Registry) Get(pid string, typ CacheType) ([]byte, bool) {
	return r.node.GetLocal(cacheDir(typ) + pid)
}

// Has reports whether the cache's bytes are actually present on the
// local file system (a row can outlive lost data after a fault
// injection).
func (r *Registry) Has(pid string, typ CacheType) bool {
	return r.node.HasLocal(cacheDir(typ) + pid)
}

// Entries returns a snapshot of the node's registry rows, sorted by pid
// then type for deterministic inspection.
func (r *Registry) Entries() []RegistryEntry {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	var out []RegistryEntry
	for _, rec := range r.c.recs {
		if rec.NID == r.node.ID && rec.row == liveRow {
			out = append(out, RegistryEntry{PID: rec.PID, Type: rec.Type})
		}
	}
	for _, cp := range r.purge {
		if cp.row == expiredRow {
			out = append(out, RegistryEntry{PID: cp.PID, Type: cp.Type, Expired: true})
		}
	}
	slices.SortFunc(out, func(a, b RegistryEntry) int { return byPID(a.PID, a.Type, b.PID, b.Type) })
	return out
}

// PurgeExpired deletes the bytes of the copies listed since the last
// purge, returning how many it purged: the Local Cache Manager's purge
// (§4.1), run once per recurrence. It visits the listed copies, not the
// catalog.
func (r *Registry) PurgeExpired() int {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	n := 0
	for _, cp := range r.purge {
		if cp.row != expiredRow {
			continue // replaced or evicted since it was listed
		}
		r.node.DeleteLocal(cp.key)
		cp.row = noRow
		n++
	}
	clear(r.purge) // a listed copy would pin its record
	r.purge = r.purge[:0]
	return n
}

// Evict removes one live cache's bytes and registry row — the targeted
// form of the purge that cost-based replacement uses. Its signature
// stays and rolls back to HDFS-available: the pane files survive, so
// the cache is rebuildable, not gone (§5). Returns the bytes freed; 0
// when the node has no live row of it or its bytes were already gone.
func (r *Registry) Evict(pid string, typ CacheType) int64 {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	rec := r.c.recs[entryKey{pid, typ}]
	if rec == nil || rec.NID != r.node.ID || rec.row != liveRow {
		return 0
	}
	sz := r.node.LocalSize(rec.key)
	r.node.DeleteLocal(rec.key)
	rec.row = noRow
	if rec.signed {
		r.c.setReadyLocked(rec, HDFSAvailable)
	} else {
		delete(r.c.recs, entryKey{pid, typ})
	}
	return max(sz, 0)
}

// CachedBytes returns the total bytes of the node's live caches present
// on its local file system.
func (r *Registry) CachedBytes() int64 {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	var total int64
	for _, rec := range r.c.recs {
		if rec.NID == r.node.ID && rec.row == liveRow {
			total += max(r.node.LocalSize(rec.key), 0)
		}
	}
	return total
}
