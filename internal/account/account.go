// Package account is the per-query (and per-tenant) resource ledger:
// every unit of simulated work the runtime performs — slot compute,
// shuffle transfer, DFS traffic, cache residency — is attributed to
// the query that caused it, in virtual time.
//
// The ledger exists because Redoop's window-aware caches (paper §3–4)
// trade resident bytes for recompute savings, and any admission or
// eviction policy needs to know the exchange rate *per consumer*: how
// many recompute nanoseconds does each resident byte·second of query
// q's caches buy back? The ledger meters four things:
//
//   - compute nanoseconds per phase (map, combine, shuffle, sort,
//     reduce, cache-load), fed by hooks in internal/mapreduce and
//     internal/core at the points where slot time is charged;
//   - cache occupancy as byte·seconds plus peak resident bytes, fed
//     by the engine's register/expire/re-register transitions;
//   - IO bytes (DFS read/write/replication, shuffle), fed by
//     internal/dfs and the shuffle accounting;
//   - recompute nanoseconds saved by cache hits, net of the cache
//     load cost actually paid — the repo's one figure for the time
//     Redoop's caches save.
//
// Determinism: every duration- or float-valued method is called only
// from the engines' serial commit paths, so attribution is
// byte-identical across -workers regimes. The only methods reachable
// from parallel code are the integer AddIO adds (DFS reads during
// split decode), which are commutative under the ledger mutex.
//
// Conservation: slot compute attributed here is exactly the virtual
// busy time the engines charge to cluster nodes via AddLoad, so
// SlotComputeNS(all queries) ≤ Σ Node.Load() always — the oracle
// asserts it after every recurrence, and CheckConservation packages
// the same test for CLIs, together with the reuse invariant: a hit's
// load never costs more than the recompute it avoided.
package account

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"redoop/internal/simtime"
)

// Phase labels one compute-phase bucket. The set is closed and small.
type Phase string

const (
	PhaseMap       Phase = "map"
	PhaseCombine   Phase = "combine"
	PhaseShuffle   Phase = "shuffle"
	PhaseSort      Phase = "sort"
	PhaseReduce    Phase = "reduce"
	PhaseCacheLoad Phase = "cache-load"
)

// Phases lists every phase in presentation order.
var Phases = []Phase{PhaseMap, PhaseCombine, PhaseShuffle, PhaseSort, PhaseReduce, PhaseCacheLoad}

// slotPhase reports whether a phase occupies a map/reduce slot (and
// therefore contributes to Node.AddLoad busy time). Shuffle is modeled
// as elapsed transfer time between map end and reduce start — it never
// holds a slot — so it is excluded from the conservation sum.
func slotPhase(p Phase) bool { return p != PhaseShuffle }

// IOKind labels one byte-counter bucket.
type IOKind string

const (
	IODFSRead  IOKind = "dfs-read"
	IODFSWrite IOKind = "dfs-write"
	IODFSRepl  IOKind = "dfs-repl"
	IOShuffle  IOKind = "shuffle"
)

// IOKinds lists every kind in presentation order.
var IOKinds = []IOKind{IODFSRead, IODFSWrite, IODFSRepl, IOShuffle}

// residency is one open cache interval, a value under its cache's
// resKey: resident on behalf of owner since `since`. recompute is the
// modeled cost to rebuild it, credited to a consumer on hit.
type residency struct {
	owner     string
	bytes     int64
	since     simtime.Time
	recompute simtime.Duration
	// hits counts cache hits served by this residency interval — an
	// access-frequency feature for cost-based replacement; it resets
	// when the interval closes (a rebuilt cache re-earns its keep).
	hits int
}

// ResidencyFeatures are the features of an open residency that the
// eviction policy ranks a cache on beside its size: the modeled
// recompute cost and the access frequency of the current interval.
type ResidencyFeatures struct {
	RecomputeNS int64
	Hits        int
}

// EvictCandidate is one cache a replacement tier may remove, with the
// features the eviction policy ranks it on. Both tiers fill it: the
// engine's disk-limit tier from the controller and the open residency
// (zeros without a ledger), the reuse index from its entry (no hits).
type EvictCandidate struct {
	PID         string
	Bytes       int64
	ReadyAt     simtime.Time
	RecomputeNS int64
	Hits        int
}

// density is the candidate's benefit density, RecomputeNS·(1+Hits)/
// Bytes: the modeled nanoseconds a future hit would save, weighted by
// how often the current residency has been hit, per byte held. A
// zero-byte candidate counts as one byte. IEEE-754 arithmetic on
// virtual-clock operands is deterministic across runs.
func (c EvictCandidate) density() float64 {
	return float64(c.RecomputeNS) * float64(1+c.Hits) / float64(max(c.Bytes, 1))
}

// CompareVictims is the one eviction policy: it orders a before b
// (negative) when a is the better victim. Lower benefit density (large,
// cheap to rebuild, never hit) evicts first; ties break on older
// ReadyAt, then pid, so a tier's decision sequence is a pure function
// of its state and replays byte-identically across worker counts and
// chaos seeds.
func CompareVictims(a, b EvictCandidate) int {
	if c := cmp.Compare(a.density(), b.density()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ReadyAt, b.ReadyAt); c != 0 {
		return c
	}
	return strings.Compare(a.PID, b.PID)
}

// Residency is the exported view of one still-open cache interval.
type Residency struct {
	Query string
	PID   string
	Type  int
	Bytes int64
	Since simtime.Time
}

// queryAcct is one query's running totals.
type queryAcct struct {
	name   string
	tenant string

	compute map[Phase]simtime.Duration
	io      map[IOKind]int64

	byteSeconds  float64 // closed residencies only; open ones accrue on read
	curResident  int64
	peakResident int64
	// open are the keys of the query's open residencies in key order,
	// the order byteSecondsLocked sums them in, kept as residencies open
	// and close.
	open []resKey

	saved simtime.Duration // recompute saved by hits, net of load paid
	// crossSaved is the subset of saved credited by cross-query reuse
	// hits (another query's cache satisfying this query's pane build).
	crossSaved simtime.Duration

	hits       int
	crossHits  int
	registered int
	expired    int

	// overrun is the first cache load that cost more than the recompute
	// its hit credited; CheckConservation reports it.
	overrun error
}

// newQueryAcct returns the empty account of query name.
func newQueryAcct(name, tenant string) *queryAcct {
	return &queryAcct{
		name:    name,
		tenant:  tenant,
		compute: map[Phase]simtime.Duration{},
		io:      map[IOKind]int64{},
	}
}

// openAt returns where k is, or would go, in a's ordered open
// residencies.
func (a *queryAcct) openAt(k resKey) (int, bool) {
	return slices.BinarySearchFunc(a.open, k, resKey.compare)
}

// pendingHit is an armed net-of-load adjustment: the consumer a hit
// credited and the recompute it was credited with.
type pendingHit struct {
	query     string
	recompute simtime.Duration
}

// QueryCosts is one query's ledger snapshot.
type QueryCosts struct {
	Query  string `json:"query"`
	Tenant string `json:"tenant,omitempty"`

	// ComputeNS maps phase name to attributed virtual nanoseconds.
	ComputeNS map[string]int64 `json:"computeNS"`
	// TotalComputeNS sums every phase including shuffle.
	TotalComputeNS int64 `json:"totalComputeNS"`
	// SlotComputeNS sums only slot-occupying phases (excludes shuffle)
	// — the conservation numerator.
	SlotComputeNS int64 `json:"slotComputeNS"`

	// IOBytes maps IO kind to attributed bytes.
	IOBytes map[string]int64 `json:"ioBytes"`

	// CacheByteSeconds integrates resident cache bytes over virtual
	// time, open residencies accrued to the ledger watermark.
	CacheByteSeconds  float64 `json:"cacheByteSeconds"`
	PeakResidentBytes int64   `json:"peakResidentBytes"`
	CurResidentBytes  int64   `json:"curResidentBytes"`

	// SavedNS is recompute time cache hits avoided, net of the cache
	// loads actually paid.
	SavedNS int64 `json:"savedNS"`
	// CrossSavedNS is the subset of SavedNS credited by cross-query
	// reuse hits (gross: the net-of-load adjustment lands on SavedNS).
	CrossSavedNS int64 `json:"crossSavedNS,omitempty"`

	CacheHits int `json:"cacheHits"`
	// CrossQueryHits counts hits satisfied from another query's cache
	// via the reuse index; they also count in CacheHits.
	CrossQueryHits  int `json:"crossQueryHits,omitempty"`
	CacheRegistered int `json:"cacheRegistered"`
	CacheExpired    int `json:"cacheExpired"`
	OpenResidencies int `json:"openResidencies"`

	// CacheROI is SavedNS per resident byte·second, the query-level
	// "is the cache paying rent" quotient; 0 when the query never held
	// cache bytes. It is reported only: the one eviction policy
	// (CompareVictims) ranks each cache on its own features.
	CacheROI float64 `json:"cacheROI"`
}

// Ledger is the process-wide cost ledger. All methods are safe for
// concurrent use and nil-safe, so call sites hook in unconditionally.
type Ledger struct {
	mu      sync.Mutex
	queries map[string]*queryAcct
	order   []string
	open    map[resKey]residency
	// pending maps a hit cache's key to the consumer whose saving must
	// be netted by that cache's next load cost. Armed by CacheHit,
	// consumed by the first subsequent CacheLoaded for the same key or
	// dropped when the residency expires; loads of caches never hit
	// leave savings untouched.
	pending map[resKey]pendingHit
	// watermark is the latest virtual instant the ledger has been
	// advanced to; open residencies accrue byte·seconds up to it when
	// read.
	watermark simtime.Time
}

// New builds an empty ledger.
func New() *Ledger {
	return &Ledger{
		queries: map[string]*queryAcct{},
		open:    map[resKey]residency{},
		pending: map[resKey]pendingHit{},
	}
}

// resKey names a residency by value: its cache's pid and type. The key
// shares the caller's pid string, so opening a residency makes none.
type resKey struct {
	pid string
	typ int
}

// appendTo appends the key's "<pid>|<typ>" form to b.
func (k resKey) appendTo(b []byte) []byte {
	return strconv.AppendInt(append(append(b, k.pid...), '|'), int64(k.typ), 10)
}

// compare orders keys as their "<pid>|<typ>" forms sort, the order open
// residencies are summed in. The forms are built on the stack; a longer
// one spills to the heap and stays correct.
func (k resKey) compare(o resKey) int {
	var a, b [128]byte
	return bytes.Compare(k.appendTo(a[:0]), o.appendTo(b[:0]))
}

// Register adds a query to the ledger and returns the account name to
// attribute its costs under — the given name, or a "#2"-style suffixed
// variant when the name is already taken (mirrors health.Monitor). On
// a nil ledger the name passes through unchanged.
func (l *Ledger) Register(query, tenant string) string {
	if l == nil {
		return query
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	name := query
	for i := 2; ; i++ {
		if _, taken := l.queries[name]; !taken {
			break
		}
		name = fmt.Sprintf("%s#%d", query, i)
	}
	l.queries[name] = newQueryAcct(name, tenant)
	l.order = append(l.order, name)
	return name
}

// acct resolves a query's account, lazily registering unknown names
// (tenant-less) so partial wiring never panics or drops costs.
func (l *Ledger) acct(query string) *queryAcct {
	a, ok := l.queries[query]
	if !ok {
		a = newQueryAcct(query, "")
		l.queries[query] = a
		l.order = append(l.order, query)
	}
	return a
}

// AddCompute attributes d of phase-p work to query. Callers on slot
// phases must charge exactly what they AddLoad to the node, so the
// conservation invariant stays an equality for fully-hooked engines.
func (l *Ledger) AddCompute(query string, p Phase, d simtime.Duration) {
	if l == nil || d == 0 || query == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acct(query).compute[p] += d
}

// AddIO attributes bytes of kind-k traffic to query. Integer and
// commutative, so safe from parallel prepare paths (DFS reads during
// split decode).
func (l *Ledger) AddIO(query string, k IOKind, bytes int64) {
	if l == nil || bytes == 0 || query == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acct(query).io[k] += bytes
}

// closeLocked accrues and removes k's open residency and reports
// whether one was open. Caller holds l.mu.
func (l *Ledger) closeLocked(k resKey, at simtime.Time) bool {
	r, ok := l.open[k]
	if !ok {
		return false
	}
	delete(l.open, k)
	a := l.acct(r.owner)
	if i, ok := a.openAt(k); ok {
		a.open = slices.Delete(a.open, i, i+1)
	}
	if at.After(r.since) {
		a.byteSeconds += float64(r.bytes) * at.Sub(r.since).Seconds()
	}
	a.curResident -= r.bytes
	a.expired++
	return true
}

// CacheRegistered opens a residency interval for pid/typ, owned by
// query, starting at `at`. A still-open interval for the same key
// (re-registration after refresh or re-homing) is closed first, so
// byte·seconds never double-count.
func (l *Ledger) CacheRegistered(query, pid string, typ int, bytes int64, at simtime.Time, recompute simtime.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := resKey{pid, typ}
	l.closeLocked(k, at)
	l.open[k] = residency{owner: query, bytes: bytes, since: at, recompute: recompute}
	a := l.acct(query)
	i, _ := a.openAt(k)
	a.open = slices.Insert(a.open, i, k)
	a.curResident += bytes
	if a.curResident > a.peakResident {
		a.peakResident = a.curResident
	}
	a.registered++
	if at.After(l.watermark) {
		l.watermark = at
	}
}

// CacheExpired closes pid/typ's residency at `at` (purge notification,
// loss discovery, or retirement). Unknown keys are ignored — chaos may
// destroy bytes the ledger closed already, and double expiry must not
// double-count. A hit no load has netted goes with the residency.
func (l *Ledger) CacheExpired(pid string, typ int, at simtime.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if at.After(l.watermark) {
		l.watermark = at
	}
	if k := (resKey{pid, typ}); l.closeLocked(k, at) {
		delete(l.pending, k)
	}
}

// Residency returns the feature vector of pid/typ's still-open
// residency interval; ok is false when none is open. Deterministic
// given the ledger's (serially recorded) event stream, so replacement
// decisions ranked on it are byte-identical across -workers settings.
func (l *Ledger) Residency(pid string, typ int) (ResidencyFeatures, bool) {
	if l == nil {
		return ResidencyFeatures{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.open[resKey{pid, typ}]
	if !ok {
		return ResidencyFeatures{}, false
	}
	return ResidencyFeatures{RecomputeNS: int64(r.recompute), Hits: r.hits}, true
}

// CacheHit credits query with the stored recompute cost of pid/typ —
// the work the hit avoided — and arms the net-of-load adjustment: the
// next CacheLoaded for the same key subtracts the load actually paid.
func (l *Ledger) CacheHit(query, pid string, typ int, at simtime.Time) {
	l.cacheHit(query, pid, typ, at, false)
}

// CacheHitCross is CacheHit for a cross-query reuse hit: the consumer
// query is credited with the producer's stored recompute cost exactly
// as on an ordinary hit, and the hit is additionally attributed to the
// consumer's cross-query counters so reuse savings are separable.
func (l *Ledger) CacheHitCross(query, pid string, typ int, at simtime.Time) {
	l.cacheHit(query, pid, typ, at, true)
}

func (l *Ledger) cacheHit(query, pid string, typ int, at simtime.Time, cross bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := resKey{pid, typ}
	if r, ok := l.open[k]; ok {
		a := l.acct(query)
		a.saved += r.recompute
		a.hits++
		r.hits++
		l.open[k] = r
		if cross {
			a.crossSaved += r.recompute
			a.crossHits++
		}
		l.pending[k] = pendingHit{query, r.recompute}
	}
	if at.After(l.watermark) {
		l.watermark = at
	}
}

// CacheLoaded nets the cost of reading cache pid/typ into its consumer
// out of that consumer's saving — but only when a hit armed the
// adjustment for this key. Loads of freshly built caches carry no
// pending hit and leave SavedNS untouched. A load that costs more than
// the recompute its hit credited is recorded as the consumer's overrun.
func (l *Ledger) CacheLoaded(pid string, typ int, load simtime.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := resKey{pid, typ}
	h, ok := l.pending[k]
	if !ok {
		return
	}
	delete(l.pending, k)
	a := l.acct(h.query)
	a.saved -= load
	if load > h.recompute && a.overrun == nil {
		a.overrun = fmt.Errorf("account: query %s: loading cache %s (type %d) cost %v, more than the %v recompute its hit avoided",
			h.query, pid, typ, load, h.recompute)
	}
}

// Advance moves the accrual watermark forward; open residencies accrue
// byte·seconds up to it when snapshotted. Engines call it at the end
// of every recurrence with the completion instant.
func (l *Ledger) Advance(at simtime.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if at.After(l.watermark) {
		l.watermark = at
	}
}

// byteSecondsLocked returns a query's accrued byte·seconds including
// open residencies up to the watermark. Open contributions sum in key
// order, which a.open keeps: float addition is order-sensitive in the
// last ulp, and map iteration order would make the total
// nondeterministic. Caller holds l.mu.
func (l *Ledger) byteSecondsLocked(a *queryAcct) float64 {
	bs := a.byteSeconds
	for _, k := range a.open {
		if r := l.open[k]; l.watermark.After(r.since) {
			bs += float64(r.bytes) * l.watermark.Sub(r.since).Seconds()
		}
	}
	return bs
}

// ByteSeconds returns query's cache occupancy integral to the
// watermark; 0 for unknown queries or a nil ledger.
func (l *Ledger) ByteSeconds(query string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.queries[query]
	if !ok {
		return 0
	}
	return l.byteSecondsLocked(a)
}

// SlotComputeNS sums slot-occupying compute (every phase except
// shuffle) over the named queries, or over all queries when none are
// named — the conservation numerator.
func (l *Ledger) SlotComputeNS(queries ...string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var total simtime.Duration
	sum := func(a *queryAcct) {
		for p, d := range a.compute {
			if slotPhase(p) {
				total += d
			}
		}
	}
	if len(queries) == 0 {
		for _, a := range l.queries {
			sum(a)
		}
	} else {
		for _, q := range queries {
			if a, ok := l.queries[q]; ok {
				sum(a)
			}
		}
	}
	return int64(total)
}

// CheckConservation asserts the ledger's structural invariants against
// an engine-side busy-time total:
//
//  1. slot compute attributed to the named queries (all, when none
//     named) must not exceed busyNS — the cluster cannot have been
//     busy for less time than the ledger attributed to queries;
//  2. per query, registered == expired + open residencies — every
//     byte·second interval is closed exactly once or still open;
//  3. per query, no cache load cost more than the recompute its hit
//     credited — a reuse never costs more than it avoided;
//  4. every hit still waiting for its load has an open residency.
//
// Returns nil when all four hold.
func (l *Ledger) CheckConservation(busyNS int64, queries ...string) error {
	if l == nil {
		return nil
	}
	if got := l.SlotComputeNS(queries...); got > busyNS {
		return fmt.Errorf("account: attributed slot compute %d ns exceeds cluster busy time %d ns", got, busyNS)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	openBy := map[string]int{}
	for _, r := range l.open {
		openBy[r.owner]++
	}
	check := func(a *queryAcct) error {
		if a.overrun != nil {
			return a.overrun
		}
		for k, h := range l.pending {
			if _, ok := l.open[k]; !ok && h.query == a.name {
				return fmt.Errorf("account: query %s: the hit on cache %s|%d waits for a load, but its residency is closed", a.name, k.pid, k.typ)
			}
		}
		if a.registered != a.expired+openBy[a.name] {
			return fmt.Errorf("account: query %s: %d residencies registered but %d expired + %d open",
				a.name, a.registered, a.expired, openBy[a.name])
		}
		return nil
	}
	if len(queries) == 0 {
		for _, name := range l.order {
			if err := check(l.queries[name]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, q := range queries {
		if a, ok := l.queries[q]; ok {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// OpenResidencies returns every still-open cache interval, sorted by
// key for determinism.
func (l *Ledger) OpenResidencies() []Residency {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]resKey, 0, len(l.open))
	for k := range l.open {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, resKey.compare)
	out := make([]Residency, 0, len(keys))
	for _, k := range keys {
		r := l.open[k]
		out = append(out, Residency{
			Query: r.owner, PID: k.pid, Type: k.typ,
			Bytes: r.bytes, Since: r.since,
		})
	}
	return out
}

// Snapshot returns every query's costs in registration order.
func (l *Ledger) Snapshot() []QueryCosts {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	openBy := map[string]int{}
	for _, r := range l.open {
		openBy[r.owner]++
	}
	out := make([]QueryCosts, 0, len(l.order))
	for _, name := range l.order {
		a := l.queries[name]
		qc := QueryCosts{
			Query:             a.name,
			Tenant:            a.tenant,
			ComputeNS:         map[string]int64{},
			IOBytes:           map[string]int64{},
			CacheByteSeconds:  l.byteSecondsLocked(a),
			PeakResidentBytes: a.peakResident,
			CurResidentBytes:  a.curResident,
			SavedNS:           int64(a.saved),
			CrossSavedNS:      int64(a.crossSaved),
			CacheHits:         a.hits,
			CrossQueryHits:    a.crossHits,
			CacheRegistered:   a.registered,
			CacheExpired:      a.expired,
			OpenResidencies:   openBy[a.name],
		}
		for _, p := range Phases {
			if d := a.compute[p]; d != 0 {
				qc.ComputeNS[string(p)] = int64(d)
			}
			qc.TotalComputeNS += int64(a.compute[p])
			if slotPhase(p) {
				qc.SlotComputeNS += int64(a.compute[p])
			}
		}
		for _, k := range IOKinds {
			if b := a.io[k]; b != 0 {
				qc.IOBytes[string(k)] = b
			}
		}
		if qc.CacheByteSeconds > 0 {
			qc.CacheROI = float64(qc.SavedNS) / qc.CacheByteSeconds
		}
		out = append(out, qc)
	}
	return out
}

// TenantCosts is one tenant's rollup across its queries. The empty
// tenant ("") aggregates untenanted queries.
type TenantCosts struct {
	Tenant           string  `json:"tenant"`
	Queries          int     `json:"queries"`
	TotalComputeNS   int64   `json:"totalComputeNS"`
	SlotComputeNS    int64   `json:"slotComputeNS"`
	IOBytes          int64   `json:"ioBytes"`
	CacheByteSeconds float64 `json:"cacheByteSeconds"`
	SavedNS          int64   `json:"savedNS"`
	// CacheROI is saved recompute per resident byte·second, the
	// tenant-level "is the cache paying rent" quotient.
	CacheROI float64 `json:"cacheROI"`
}

// RollupTenants aggregates per-query costs by tenant, sorted by tenant
// name (the "" rollup of untenanted queries first).
func RollupTenants(snaps []QueryCosts) []TenantCosts {
	byTenant := map[string]*TenantCosts{}
	var order []string
	for _, qc := range snaps {
		tc, ok := byTenant[qc.Tenant]
		if !ok {
			tc = &TenantCosts{Tenant: qc.Tenant}
			byTenant[qc.Tenant] = tc
			order = append(order, qc.Tenant)
		}
		tc.Queries++
		tc.TotalComputeNS += qc.TotalComputeNS
		tc.SlotComputeNS += qc.SlotComputeNS
		for _, b := range qc.IOBytes {
			tc.IOBytes += b
		}
		tc.CacheByteSeconds += qc.CacheByteSeconds
		tc.SavedNS += qc.SavedNS
	}
	sort.Strings(order)
	out := make([]TenantCosts, 0, len(order))
	for _, t := range order {
		tc := byTenant[t]
		if tc.CacheByteSeconds > 0 {
			tc.CacheROI = float64(tc.SavedNS) / tc.CacheByteSeconds
		}
		out = append(out, *tc)
	}
	return out
}
