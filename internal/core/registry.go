package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"redoop/internal/cluster"
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
	prefix := cacheDir(typ)
	var b strings.Builder
	b.Grow(len(prefix) + len(pid))
	b.WriteString(prefix)
	b.Write(pid)
	key = b.String()
	return key, key[len(prefix):]
}

// RegistryEntry is one row of the local cache registry (paper Table 1):
// which pane is cached, at which stage, and whether any window
// operation still needs it.
type RegistryEntry struct {
	PID     string
	Type    CacheType
	Expired bool
}

// Registry is the local cache registry of one task node. The node's
// Local Cache Manager appends entries as caches are created, flips
// expiration flags when the window-aware cache controller notifies it,
// and purges expired caches periodically or on demand (§4.1).
type Registry struct {
	mu      sync.Mutex
	node    *cluster.Node
	entries map[entryKey]*registryRow
	// expired holds the rows MarkExpired flipped since the last purge,
	// the only rows PurgeExpired visits. A row replaced or evicted in
	// the meantime is no longer its key's entry, and the purge skips it.
	expired []*registryRow
}

// registryRow is a registry row and the node-local key of its bytes,
// built once, when the cache is added: only Add writes a cache's bytes
// and every removal of a row deletes them, so a cache whose row is gone
// has no bytes either, and a read needs no key of its own.
type registryRow struct {
	RegistryEntry
	key string
}

// cacheRecord is a registration's record: the node's registry row,
// which names the cache, and the controller's signature, whose done mask
// is inline, in one object (Engine.registerCache). The two tables keep
// their own pointers into it, under their own locks, and the record
// lives while either does. A re-registration that finds its signature
// uses only the row.
type cacheRecord struct {
	row registryRow
	sig Signature
}

// newRecord is the record of a cache registered alone (a rebuild, a
// reuse copy): two objects, its key string and the record.
func newRecord(pid []byte, typ CacheType) *cacheRecord {
	key, pidStr := cacheKey(pid, typ)
	return &cacheRecord{row: registryRow{RegistryEntry{PID: pidStr, Type: typ}, key}}
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

// NewRegistry builds the registry for one node.
func NewRegistry(node *cluster.Node) *Registry {
	return &Registry{node: node, entries: make(map[entryKey]*registryRow)}
}

// row returns the cache's row, nil when it has none.
func (r *Registry) row(pid string, typ CacheType) *registryRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[entryKey{pid, typ}]
}

// entryKey is a cache's identity, on a node (Registry.entries) and on
// the master (Controller.sigs): its PID and its stage, compared by value.
type entryKey struct {
	pid string
	typ CacheType
}

// NodeID returns the owning node's ID.
func (r *Registry) NodeID() int { return r.node.ID }

// Add registers a newly created cache and stores its bytes on the
// node's local file system, taking ownership of data: the caller must
// not write it again. The new entry starts unexpired; existing entries
// are untouched (adding is append-only, §4.1).
func (r *Registry) Add(pid string, typ CacheType, data []byte) {
	var buf pidBuf
	key, pid := cacheKey(append(buf[:0], pid...), typ)
	r.add(&registryRow{RegistryEntry{PID: pid, Type: typ}, key}, data)
}

// add is Add of a new row, its PID and key built by cacheKey or laid
// out in a cacheSet.
func (r *Registry) add(row *registryRow, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[entryKey{row.PID, row.Type}] = row
	r.node.PutLocal(row.key, data)
}

// resident returns the node-local key a cache's bytes are stored
// under, when its row exists and the bytes are on the node: what
// Engine.lookupCache resolves a hit to, so that reading the bytes
// (Engine.cacheBytes) probes the node alone. The PID's bytes may be on
// the caller's stack: the map index converts them without a copy.
func (r *Registry) resident(pid []byte, typ CacheType) (key string, ok bool) {
	r.mu.Lock()
	row := r.entries[entryKey{string(pid), typ}]
	r.mu.Unlock()
	if row == nil || !r.node.HasLocal(row.key) {
		return "", false
	}
	return row.key, true
}

// Get loads a cached entry's bytes from the node's local file system.
// The second result is false when the cache is absent — either never
// created here or lost to a failure; callers treat that as a cache miss
// and trigger recovery. Ownership: Add takes the writer's bytes over and
// they are immutable from then on, so Get returns a read-only view, not
// a copy. The view outlives expiry, eviction, re-registration and node
// loss of the entry unchanged; the caller must not write through it.
func (r *Registry) Get(pid string, typ CacheType) ([]byte, bool) {
	row := r.row(pid, typ)
	if row == nil {
		return nil, false
	}
	return r.node.GetLocal(row.key)
}

// Has reports whether the cache's bytes are actually present on the
// local file system (registry entries can outlive lost data after a
// fault injection).
func (r *Registry) Has(pid string, typ CacheType) bool {
	row := r.row(pid, typ)
	return row != nil && r.node.HasLocal(row.key)
}

// MarkExpired flips the expiration flag of an entry in response to a
// purge notification from the window-aware cache controller. Unknown
// entries are ignored (the notification may race a node failure).
func (r *Registry) MarkExpired(pid string, typ CacheType) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[entryKey{pid, typ}]; ok && !e.Expired {
		e.Expired = true
		r.expired = append(r.expired, e)
	}
}

// Entries returns a snapshot of all registry rows, sorted by pid then
// type for deterministic inspection.
func (r *Registry) Entries() []RegistryEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RegistryEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.RegistryEntry)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// PurgeExpired removes every expired entry's data and registry row,
// returning the number of caches purged. This is the body of both
// purge policies: the Local Cache Manager calls it on its periodic
// PurgeCycle tick, and on demand when local disk runs short (§4.1). It
// visits the rows expired since the last purge, not the registry.
func (r *Registry) PurgeExpired() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.expired {
		if k := (entryKey{e.PID, e.Type}); r.entries[k] == e {
			r.node.DeleteLocal(e.key)
			delete(r.entries, k)
			n++
		}
	}
	clear(r.expired) // a listed row would pin its record
	r.expired = r.expired[:0]
	return n
}

// Evict removes one unexpired entry's bytes and registry row — the
// targeted form of PurgeExpired that cost-based replacement uses once
// the controller has rolled the victim's signature back to
// HDFSAvailable. Returns the bytes freed; 0 when the entry or its
// bytes were already gone.
func (r *Registry) Evict(pid string, typ CacheType) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	row, ok := r.entries[entryKey{pid, typ}]
	if !ok {
		return 0
	}
	sz := r.node.LocalSize(row.key)
	r.node.DeleteLocal(row.key)
	delete(r.entries, entryKey{pid, typ})
	if sz < 0 {
		return 0
	}
	return sz
}

// LocalBytes returns the owning node's total local-file-system bytes —
// the quantity a CacheManager's DiskLimit bounds.
func (r *Registry) LocalBytes() int64 {
	return r.node.LocalBytes()
}

// CachedBytes returns the total bytes of unexpired caches present on
// the local file system.
func (r *Registry) CachedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.entries {
		if !e.Expired {
			if sz := r.node.LocalSize(e.key); sz > 0 {
				total += sz
			}
		}
	}
	return total
}

// CacheManager is the Local Cache Manager: it owns a node's registry
// and applies the purge policy. PurgeCycle is expressed in recurrences
// of the driving query (the paper's default is one slide).
type CacheManager struct {
	Registry *Registry
	// PurgeCycle is how many recurrences elapse between periodic
	// purge scans; <=0 means every recurrence (the paper's default of
	// one slide).
	PurgeCycle int
	// DiskLimit triggers on-demand purging when the node's total
	// local bytes exceed it; 0 disables the limit.
	DiskLimit int64

	sinceLastPurge int
	purged         int
}

// NewCacheManager wraps a registry with the default purge policy.
func NewCacheManager(reg *Registry) *CacheManager {
	return &CacheManager{Registry: reg, PurgeCycle: 1}
}

// Tick advances the manager by one recurrence, running a periodic purge
// when the cycle elapses and an on-demand purge when the disk limit is
// exceeded. It returns the number of caches purged this tick.
func (m *CacheManager) Tick() int {
	n := 0
	m.sinceLastPurge++
	cycle := m.PurgeCycle
	if cycle <= 0 {
		cycle = 1
	}
	if m.sinceLastPurge >= cycle {
		m.sinceLastPurge = 0
		n += m.Registry.PurgeExpired()
	}
	if m.DiskLimit > 0 && m.Registry.node.LocalBytes() > m.DiskLimit {
		n += m.Registry.PurgeExpired() // on-demand purging
	}
	m.purged += n
	return n
}

// TotalPurged returns the cumulative number of purged caches.
func (m *CacheManager) TotalPurged() int { return m.purged }

// OverLimit reports how many bytes the node exceeds DiskLimit by; 0
// with no limit set or a node within budget. A positive value after a
// Tick means pure expiry could not fit the node: the engine answers it
// with cost-based replacement of unexpired entries (lowest benefit
// density first), the feature-ranked policy that supersedes purge-only
// eviction under disk pressure.
func (m *CacheManager) OverLimit() int64 {
	if m.DiskLimit <= 0 {
		return 0
	}
	over := m.Registry.LocalBytes() - m.DiskLimit
	if over < 0 {
		return 0
	}
	return over
}
