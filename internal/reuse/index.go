// Package reuse is Redoop's cross-query pane reuse index: a
// fingerprint-keyed catalog of materialized pane reduce-output caches
// that lets one query satisfy a pane build from another query's cached
// work, in the spirit of ReStore (PAPERS.md, arxiv 1203.0061).
//
// Entries are keyed by (operator fingerprint, pane unit, pane id,
// partition): the operator fingerprint (lineage.OpFingerprint) covers
// the map/combine/reduce/merge/partition lineage plus the source's
// cross-query CacheKey — the data-identity anchor — but not the window
// geometry, so queries with different win/slide over the same shared
// stream still match wherever their pane grids coincide or nest.
//
// Two probe shapes exist:
//
//   - exact: the consumer's pane unit equals a published unit and every
//     partition of the pane is present — the consumer copies the
//     producer's bytes instead of recomputing (engine-side);
//   - subsumption: a finer published unit u divides the consumer's
//     unit U, and all U/u finer panes covering the consumer pane are
//     present for every partition — the consumer composes them with
//     its (algebraic) Merge, the same decomposition contract the
//     engine's proactive sub-pane path already relies on.
//
// Keep/evict is cost-based rather than pure-expiry: when the index
// exceeds its bound, it drops entries in the order of the engine's one
// eviction policy (account.CompareVictims) over each entry's own
// recompute cost, bytes and ready time — the lowest benefit density
// first — and, among entries that policy ranks equal, the oldest.
//
// Determinism: all writes and probes come from the engines' serial
// commit paths (pane registration on the core engine's recovery ladder,
// Engine.ensurePane), so the index contents — and Snapshot — are
// byte-identical across -workers settings; the experiments suite
// asserts DeepEqual at -workers 1 vs 4.
// All methods are nil-safe so call sites hook in unconditionally.
package reuse

import (
	"slices"
	"sort"
	"sync"

	"redoop/internal/account"
	"redoop/internal/simtime"
)

// DefaultCap bounds retained entries when New is given cap <= 0.
const DefaultCap = 4096

// Entry is one published pane reduce-output cache.
type Entry struct {
	// OpFP is the producing plan's operator fingerprint
	// (lineage.OpFingerprint).
	OpFP string `json:"opFP"`
	// Unit is the producer's pane width in window units; Pane the pane
	// id on that unit's grid (pane covers units [Pane*Unit,
	// (Pane+1)*Unit)); Part the reduce partition.
	Unit int64 `json:"unit"`
	Pane int64 `json:"pane"`
	Part int   `json:"part"`
	// Query is the producer's ledger account name — probes from the
	// same query never match their own entries (self-reuse is the
	// engine's ordinary pane cache path).
	Query string `json:"query"`
	// PID/Type locate the producer's cache in the controller; Node and
	// Bytes mirror its signature at publish time.
	PID   string `json:"pid"`
	Type  int    `json:"type"`
	Node  int    `json:"node"`
	Bytes int64  `json:"bytes"`
	// ReadyAtNS is when the bytes became usable; RecomputeNS the
	// modeled cost a hit avoids (the producer's build cost).
	ReadyAtNS   int64 `json:"readyAtNS"`
	RecomputeNS int64 `json:"recomputeNS"`
	// Seq is the insertion sequence; it orders entries the eviction
	// policy ranks equal, as one cache published under two keys is.
	Seq uint64 `json:"seq"`
}

type key struct {
	opFP string
	unit int64
	pane int64
	part int
}

// Stats summarizes index activity for bench/CLI output.
type Stats struct {
	Entries    int `json:"entries"`
	Published  int `json:"published"`
	ExactHits  int `json:"exactHits"`
	SubsumHits int `json:"subsumHits"`
	Misses     int `json:"misses"`
	Dropped    int `json:"dropped"`
	Evicted    int `json:"evicted"`
}

// Index is the bounded cross-query reuse index. Safe for concurrent
// use; nil-safe throughout.
type Index struct {
	mu  sync.Mutex
	cap int
	seq uint64

	entries map[key]Entry
	// units tracks, per operator fingerprint, which pane units have
	// ever been published — the subsumption probe's candidate set.
	units map[string]map[int64]bool
	// byPID indexes live entry keys by producer cache identity so
	// purge/loss notifications can drop them without a scan.
	byPID map[pidKey]pidKeys

	published  int
	exactHits  int
	subsumHits int
	misses     int
	dropped    int
	evicted    int
}

// NewIndex builds an empty index retaining up to cap entries (cap <= 0
// means DefaultCap).
func NewIndex(cap int) *Index {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Index{
		cap:     cap,
		entries: map[key]Entry{},
		units:   map[string]map[int64]bool{},
		byPID:   map[pidKey]pidKeys{},
	}
}

// pidKey is a producer cache's identity, compared by value like the
// controller's entryKey{pid, typ}, so a purge or loss notice for a cache
// the index never saw costs a lookup and nothing else.
type pidKey struct {
	pid string
	typ int
}

// pidKeys are the entry keys one producer cache is published under:
// first inline, since a cache is published under one key unless two
// same-named queries with different operators share the index, and
// the rest in more.
type pidKeys struct {
	first key
	more  []key
}

// Publish inserts (or refreshes) one pane cache entry. Called only
// from the engines' serial commit points, right after the producing
// cache registration.
func (x *Index) Publish(e Entry) {
	if x == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	k := key{opFP: e.OpFP, unit: e.Unit, pane: e.Pane, part: e.Part}
	if old, ok := x.entries[k]; ok {
		x.unlinkPIDLocked(old, k)
	}
	x.seq++
	e.Seq = x.seq
	x.entries[k] = e
	pk := pidKey{e.PID, e.Type}
	if ks, ok := x.byPID[pk]; ok {
		ks.more = append(ks.more, k)
		x.byPID[pk] = ks
	} else {
		x.byPID[pk] = pidKeys{first: k}
	}
	if x.units[e.OpFP] == nil {
		x.units[e.OpFP] = map[int64]bool{}
	}
	x.units[e.OpFP][e.Unit] = true
	x.published++
	x.evictOverCapLocked()
}

// unlinkPIDLocked removes k from the PID reverse index. Caller holds
// x.mu.
func (x *Index) unlinkPIDLocked(e Entry, k key) {
	pk := pidKey{e.PID, e.Type}
	ks, ok := x.byPID[pk]
	if !ok {
		return
	}
	if ks.first == k {
		if len(ks.more) == 0 {
			delete(x.byPID, pk)
			return
		}
		ks.first, ks.more = ks.more[0], ks.more[1:]
	} else if i := slices.Index(ks.more, k); i >= 0 {
		ks.more = slices.Delete(ks.more, i, i+1)
	}
	x.byPID[pk] = ks
}

// evictOverCapLocked enforces the bound: while over capacity, drop the
// entry the eviction policy ranks first (ties: oldest Seq). Caller
// holds x.mu.
func (x *Index) evictOverCapLocked() {
	for len(x.entries) > x.cap {
		var victim key
		var vic Entry
		first := true
		for k, e := range x.entries {
			if first {
				victim, vic, first = k, e, false
				continue
			}
			if c := account.CompareVictims(e.candidate(), vic.candidate()); c < 0 || c == 0 && e.Seq < vic.Seq {
				victim, vic = k, e
			}
		}
		x.unlinkPIDLocked(vic, victim)
		delete(x.entries, victim)
		x.evicted++
	}
}

// candidate is the entry as the eviction policy sees it, with no hits:
// the index counts none per entry.
func (e *Entry) candidate() account.EvictCandidate {
	return account.EvictCandidate{PID: e.PID, Bytes: e.Bytes, ReadyAt: simtime.Time(e.ReadyAtNS), RecomputeNS: e.RecomputeNS}
}

// ProbeExact returns the published entries covering every partition of
// pane `pane` at exactly the prober's unit, produced by a query other
// than notQuery. Partitions are returned in partition order; a single
// missing partition (or any self-produced partition) is a miss.
func (x *Index) ProbeExact(opFP string, unit, pane int64, parts int, notQuery string) ([]Entry, bool) {
	if x == nil {
		return nil, false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	var out []Entry // made once a partition matches: most probes miss at the first
	for part := 0; part < parts; part++ {
		e, ok := x.entries[key{opFP: opFP, unit: unit, pane: pane, part: part}]
		if !ok || e.Query == notQuery {
			x.misses++
			return nil, false
		}
		if out == nil {
			out = make([]Entry, parts)
		}
		out[part] = e
	}
	x.exactHits++
	return out, true
}

// ProbeSubsume looks for a finer published pane unit u that divides
// the prober's unit, such that the prober's pane decomposes into
// unit/u consecutive finer panes all present for every partition (all
// from queries other than notQuery). The coarsest qualifying u wins
// (fewest merge inputs). Returns, per partition, the finer entries in
// pane order, plus the finer unit.
func (x *Index) ProbeSubsume(opFP string, unit, pane int64, parts int, notQuery string) ([][]Entry, int64, bool) {
	if x == nil {
		return nil, 0, false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	var cands []int64
	for u := range x.units[opFP] {
		if u < unit && unit%u == 0 {
			cands = append(cands, u)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] > cands[j] })
	for _, u := range cands {
		k := unit / u
		out := make([][]Entry, parts)
		found := true
		for part := 0; found && part < parts; part++ {
			row := make([]Entry, 0, k)
			for i := int64(0); i < k; i++ {
				e, ok := x.entries[key{opFP: opFP, unit: u, pane: pane*k + i, part: part}]
				if !ok || e.Query == notQuery {
					found = false
					break
				}
				row = append(row, e)
			}
			out[part] = row
		}
		if found {
			x.subsumHits++
			return out, u, true
		}
	}
	x.misses++
	return nil, 0, false
}

// DropPID removes every entry backed by cache pid/typ — called by the
// engine's reuse fold on a purge, a §5 loss, an eviction or a stale
// advertisement, so the index never advertises bytes the controller no
// longer vouches for.
func (x *Index) DropPID(pid string, typ int) {
	if x == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	pk := pidKey{pid, typ}
	ks, ok := x.byPID[pk]
	if !ok {
		return
	}
	delete(x.byPID, pk)
	drop := func(k key) {
		if _, ok := x.entries[k]; ok {
			delete(x.entries, k)
			x.dropped++
		}
	}
	drop(ks.first)
	for _, k := range ks.more {
		drop(k)
	}
}

// Stats returns the index's activity counters.
func (x *Index) Stats() Stats {
	if x == nil {
		return Stats{}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return Stats{
		Entries:    len(x.entries),
		Published:  x.published,
		ExactHits:  x.exactHits,
		SubsumHits: x.subsumHits,
		Misses:     x.misses,
		Dropped:    x.dropped,
		Evicted:    x.evicted,
	}
}

// Snapshot returns every live entry sorted by (OpFP, Unit, Pane, Part)
// — a deterministic view suitable for DeepEqual across -workers
// settings and for JSON export.
func (x *Index) Snapshot() []Entry {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]Entry, 0, len(x.entries))
	for _, e := range x.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.OpFP != b.OpFP {
			return a.OpFP < b.OpFP
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		if a.Pane != b.Pane {
			return a.Pane < b.Pane
		}
		return a.Part < b.Part
	})
	return out
}
