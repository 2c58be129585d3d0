package core

import (
	"fmt"
	"sort"
	"sync"

	"redoop/internal/simtime"
)

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

// Signature is one cache signature row of the window-aware cache
// controller (paper Table 2): the consolidated master-side view of one
// cache on one task node, with the per-query done mask that drives
// purge notifications.
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
// class, 144 bytes.
const inlineQueries = 16

// allDone reports whether every query is finished with the cache.
func (s *Signature) allDone() bool {
	for _, d := range s.doneQueryMask {
		if !d {
			return false
		}
	}
	return true
}

// Controller is the window-aware cache controller housed on the master
// node (paper §4.2): it consolidates all task nodes' local cache
// registries, maintains cache signatures, and sends purge notifications
// when a cache's doneQueryMask fills. It reports nothing itself: every
// transition it makes is committed by the engine that asked for it.
type Controller struct {
	mu         sync.Mutex
	queries    []string
	groups     map[string][]int // cache-sharing groups: scope -> query indices
	sigs       map[entryKey]*Signature
	registries map[int]*Registry

	// onTransition, when set, observes every ready-state change of
	// every signature (Register refreshes included). Invoked with the
	// controller lock held: the hook must record and return, never
	// call back into the controller.
	onTransition func(pid string, typ CacheType, from, to Ready)

	// onPurge, when set, observes every signature removal — the purge
	// notification of MarkQueryDone — so layers advertising caches by
	// signature (the cross-query reuse index) can invalidate
	// immediately. Invoked with the controller lock held: the hook must
	// record and return, never call back into the controller.
	onPurge func(pid string, typ CacheType)
}

// NewController builds an empty controller.
func NewController() *Controller {
	return &Controller{
		groups:     make(map[string][]int),
		sigs:       make(map[entryKey]*Signature),
		registries: make(map[int]*Registry),
	}
}

// SetTransitionHook installs (or, with nil, removes) an observer of
// every signature ready-state change. The §5-legal transitions are
// upgrades/refreshes (to ≥ from) and the cache-loss rollback
// CacheAvailable→HDFSAvailable; verification tooling uses the hook to
// flag anything else. The hook runs under the controller lock and must
// not call back into the controller.
func (c *Controller) SetTransitionHook(fn func(pid string, typ CacheType, from, to Ready)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onTransition = fn
}

// SetPurgeHook installs (or, with nil, removes) an observer of every
// signature removal — MarkQueryDone's purge notification. The hook
// runs under the controller lock and must not call back into the
// controller. Engines sharing one controller install equivalent hooks
// (the last install wins), mirroring SetTransitionHook's semantics.
func (c *Controller) SetPurgeHook(fn func(pid string, typ CacheType)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPurge = fn
}

// AttachRegistry registers a task node's local cache registry with the
// controller; this models the heartbeat synchronization channel between
// Local Cache Managers and the master.
func (c *Controller) AttachRegistry(r *Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registries[r.NodeID()] = r
}

// Registry returns the attached registry of a node, or nil.
func (c *Controller) Registry(node int) *Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registries[node]
}

// RegisterQuery adds a query to the controller and returns its bit
// index in every signature's doneQueryMask. Existing signatures grow a
// bit initialized per usedBy semantics at Register time; registering
// queries after caches exist marks the new bit done (the cache predates
// the query and is not owed to it).
func (c *Controller) RegisterQuery(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queries = append(c.queries, name)
	idx := len(c.queries) - 1
	for _, s := range c.sigs {
		s.doneQueryMask = append(s.doneQueryMask, true)
	}
	return idx
}

// JoinGroup adds query q to a cache-sharing group. Caches registered
// with the group's full membership as usedBy are purged only when
// every member releases them (the doneQueryMask semantics of §4.2).
func (c *Controller) JoinGroup(group string, q int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.groups[group] {
		if m == q {
			return
		}
	}
	c.groups[group] = append(c.groups[group], q)
}

// Group returns a cache-sharing group's member query indices.
func (c *Controller) Group(group string) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.groups[group]...)
}

// Queries returns the registered query names in bit order.
func (c *Controller) Queries() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.queries...)
}

// Register records (or refreshes) a cache signature. usedBy lists the
// query indices that will consume this cache; all other queries' bits
// start done, as in the paper's initialization. Re-registering an
// existing signature (e.g. a shared source cache created by a sibling
// query, or a cache rebuilt after loss) updates its location and state
// and clears the usedBy queries' bits without disturbing other
// queries' claims. usedBy is read, not kept.
func (c *Controller) Register(pid string, typ CacheType, nid int, ready Ready, readyAt simtime.Time, bytes int64, usedBy []int) *Signature {
	s, _ := c.register(nil, pid, typ, nid, ready, readyAt, bytes, usedBy)
	return s
}

// register is Register with the zero signature a new cache takes, a
// cacheRecord's; nil allocates one. A re-registration leaves it unused.
// prevNID is the node the signature named before, -1 for a new one.
func (c *Controller) register(fresh *Signature, pid string, typ CacheType, nid int, ready Ready, readyAt simtime.Time, bytes int64, usedBy []int) (sig *Signature, prevNID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sigs[entryKey{pid, typ}]
	prevNID = -1
	if ok {
		prevNID = s.NID
	} else {
		if s = fresh; s == nil {
			s = new(Signature)
		}
		s.PID, s.Type, s.doneQueryMask = pid, typ, s.inline[:0]
		for range c.queries {
			s.doneQueryMask = append(s.doneQueryMask, true)
		}
		c.sigs[entryKey{pid, typ}] = s
	}
	if c.onTransition != nil {
		from := NotAvailable
		if ok {
			from = s.Ready
		}
		c.onTransition(pid, typ, from, ready)
	}
	s.NID = nid
	s.Ready = ready
	s.ReadyAt = readyAt
	s.Bytes = bytes
	for _, q := range usedBy {
		claimLocked(s, q)
	}
	return s, prevNID
}

// ClaimUser marks query q as an active consumer of a cache (clears its
// done bit), delaying purge until the query releases it with
// MarkQueryDone. Claiming an unknown cache is a no-op returning false.
func (c *Controller) ClaimUser(pid string, typ CacheType, q int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sigs[entryKey{pid, typ}]
	if ok {
		claimLocked(s, q)
	}
	return ok
}

// claim is ClaimUser of a signature the caller has looked up: a hit
// claims its cache without a second probe of the signatures. A claim on
// a signature purged in between changes nothing anyone reads.
func (c *Controller) claim(s *Signature, q int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	claimLocked(s, q)
}

// claimLocked clears query q's done bit on s.
func claimLocked(s *Signature, q int) {
	if q >= 0 && q < len(s.doneQueryMask) {
		s.doneQueryMask[q] = false
	}
}

// Lookup returns the signature for a cache, if any.
func (c *Controller) Lookup(pid string, typ CacheType) (*Signature, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sigs[entryKey{pid, typ}]
	return s, ok
}

// lookup is Lookup by the PID's bytes, which the caller may build on its
// stack: the map index converts them without a copy, and the signature
// carries the PID's stored string.
func (c *Controller) lookup(pid []byte, typ CacheType) (*Signature, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sigs[entryKey{string(pid), typ}]
	return s, ok
}

// Signatures returns all signatures sorted by pid then type.
func (c *Controller) Signatures() []*Signature {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Signature, 0, len(c.sigs))
	for _, s := range c.sigs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// SetReady transitions a cache's ready state (e.g. 2→1 on cache loss
// during failure recovery, §5). Unknown caches are ignored.
func (c *Controller) SetReady(pid string, typ CacheType, ready Ready, at simtime.Time, nid int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sigs[entryKey{pid, typ}]; ok {
		if c.onTransition != nil {
			c.onTransition(pid, typ, s.Ready, ready)
		}
		s.Ready = ready
		s.ReadyAt = at
		s.NID = nid
	}
}

// MarkQueryDone sets query q's bit on a cache's doneQueryMask. When the
// mask fills, the controller sends a purge notification to the cache's
// node: the local registry entry is marked expired (the node purges it
// on its next periodic or on-demand cycle) and the signature is
// dropped. It reports whether the notification was sent.
func (c *Controller) MarkQueryDone(pid string, typ CacheType, q int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.markDoneLocked(c.sigs[entryKey{pid, typ}], q)
}

// markQueryDone is MarkQueryDone by the PID's bytes (see lookup). It
// returns the purged signature, nil when no notification was sent; the
// signature has left the controller, so its fields no longer change.
func (c *Controller) markQueryDone(pid []byte, typ CacheType, q int) *Signature {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.sigs[entryKey{string(pid), typ}]; c.markDoneLocked(s, q) {
		return s
	}
	return nil
}

// markDoneLocked is MarkQueryDone on signature s, nil when there is none.
func (c *Controller) markDoneLocked(s *Signature, q int) bool {
	if s == nil {
		return false
	}
	pid, typ := s.PID, s.Type
	if q >= 0 && q < len(s.doneQueryMask) {
		s.doneQueryMask[q] = true
	}
	if !s.allDone() {
		return false
	}
	// Notify every node holding a copy, not just the signature's
	// current home: re-homing and cross-query copies can leave sibling
	// replicas of the same pid on other nodes, and a purge notice that
	// reaches only s.NID would strand them — unexpired, resident, and
	// invisible to every future notification once the signature is
	// gone (the oracle flags exactly that as orphaned bytes).
	for _, reg := range c.registries {
		reg.MarkExpired(pid, typ)
	}
	delete(c.sigs, entryKey{pid, typ})
	if c.onPurge != nil {
		c.onPurge(pid, typ)
	}
	return true
}
