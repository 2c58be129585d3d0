package lineage

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// DefaultCap is the default bound on retained derivations (and on
// retained batches per store). Expired derivations beyond the bound
// are evicted oldest-first; the eviction watermark lets closure checks
// distinguish "evicted" from "missing".
const DefaultCap = 8192

// KeepRecurrences is the age bound (DESIGN.md, "Sidecar retention"):
// what is recorded this many recurrences before its query's latest
// window is evicted, in order, unless still resident or claimed.
const KeepRecurrences = 16

// Range is a half-open record-index range [Lo, Hi) within one batch.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// PaneRange attributes one contiguous index run of a batch to a pane.
// A batch whose records interleave panes (late data, delayed delivery)
// carries several runs per pane.
type PaneRange struct {
	Pane int64 `json:"pane"`
	R    Range `json:"r"`
}

// Batch is one accepted Engine.Ingest call: which source delivered it,
// its per-source sequence number, and which index runs landed in which
// pane.
type Batch struct {
	Query   string      `json:"query"`
	Source  string      `json:"source"`
	Seq     int         `json:"seq"`
	Records int         `json:"records"`
	Panes   []PaneRange `json:"panes"`
}

// BatchRef is a derivation's claim on part of a batch: the referenced
// record-index ranges, in run order.
type BatchRef struct {
	Source string  `json:"source"`
	Seq    int     `json:"seq"`
	Ranges []Range `json:"ranges"`
}

// InputRef points a derivation at an upstream derivation, carrying the
// target's insertion sequence so closure checks can tell a legitimately
// evicted input from a bookkeeping hole (Store.Input).
type InputRef struct {
	Key Key    `json:"key"`
	Seq uint64 `json:"seq"`
}

// Derivation is one provenance node: a cached pane segment (reduce
// input or output), a join tuple output, or an emitted window. The
// store keeps it as recorded, a fact of fixed-size fields keyed by
// value; its ID and its consumers are derived when it is read.
type Derivation struct {
	// Key is the node's stable identity: the cache's pid and type, or
	// WindowKey(query, recurrence) for windows.
	Key Key `json:"key"`
	// Kind is pane-rin | pane-rout | tuple-rout | window.
	Kind  string `json:"kind"`
	Query string `json:"query"`
	// Fingerprint is the producing plan's canonical fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Recurrence is the recurrence that (last) built the node.
	Recurrence int   `json:"recurrence"`
	Pane       int64 `json:"pane"`
	Part       int   `json:"part"`
	Bytes      int64 `json:"bytes"`
	// SHA is the digest of the derived bytes at build time — the
	// oracle recomputes claimed inputs and matches it.
	SHA Digest `json:"sha"`
	// CostNS is the modeled virtual cost of (re)building the node, the
	// same figure the account ledger credits on a cache hit.
	CostNS int64 `json:"costNS"`
	// Job names the mapreduce job whose attempts produced the node
	// (empty for windows and for outputs rebuilt from cached inputs):
	// the job label of its task spans.
	Job string `json:"job,omitempty"`
	// Batches are the raw-input claims, which the store keeps as given,
	// so they must not change afterwards; Inputs the upstream
	// derivations, which it copies; Consumers, filled in when read, the
	// IDs of the retained derivations whose Inputs name this one, in
	// insertion order.
	Batches   []BatchRef `json:"batches,omitempty"`
	Inputs    []InputRef `json:"inputs,omitempty"`
	Consumers []string   `json:"consumers,omitempty"`
	// Builds counts how many times the node was built (1 = never
	// rebuilt).
	Builds int `json:"builds"`
	// Seq is the insertion sequence (eviction watermark axis).
	Seq uint64 `json:"seq"`
	// Expired marks nodes whose cached bytes are gone (retired or
	// lost); their derivations linger for history until evicted.
	Expired bool `json:"expired"`
}

// Key names a derivation by value: a cache by its PID and CacheType
// ordinal, a window by its whole ID (WindowKey). The store keeps the
// key, sharing the caller's PID string, and formats the ID only when a
// reader asks for it.
type Key struct {
	PID  string
	Type int
}

// windowType is the Type of a window's key, whose PID is its whole ID.
const windowType = -1

// WindowKey is the key of query's recurrence-r window output.
func WindowKey(query string, r int) Key { return Key{WindowID(query, r), windowType} }

// ID formats the key as its derivation ID: "<pid>|<typ>" for a cache,
// WindowID(query, recurrence) for a window.
func (k Key) ID() string {
	if k.Type == windowType {
		return k.PID
	}
	var buf [64]byte
	return string(strconv.AppendInt(append(append(buf[:0], k.PID...), '|'), int64(k.Type), 10))
}

// WindowID is the derivation ID of query's recurrence-r window output.
func WindowID(query string, r int) string { return "window/" + query + "/r" + strconv.Itoa(r) }

// BatchID is the node ID of one ingested batch.
func BatchID(query, source string, seq int) string {
	return "batch/" + query + "/" + source + "/" + strconv.Itoa(seq)
}

// batchKey names a batch by value, as BatchID does by string: the store
// keys its batches and their claims by it, and builds a BatchID only
// for a report that names one (Trace, Graph).
type batchKey struct {
	query, source string
	seq           int
}

// Stats summarizes a store for bench output.
type Stats struct {
	Nodes                int `json:"nodes"`
	Batches              int `json:"batches"`
	Edges                int `json:"edges"`
	DistinctFingerprints int `json:"distinctFingerprints"`
	Rebuilds             int `json:"rebuilds"`
	Evicted              int `json:"evicted"`
}

// Store is the bounded provenance store. All methods are safe for
// concurrent use and nil-safe, so call sites hook in unconditionally;
// writes must nevertheless come only from the engines' serial commit
// paths for cross-worker determinism (see the package comment).
type Store struct {
	mu  sync.Mutex
	cap int

	seq uint64
	// nodes is a ring of the retained derivations in insertion order,
	// by value: the i-th of live is nth(i), and eviction advances head.
	// Their seqs are consecutive, so index, which maps each retained key
	// to its seq, locates a node by its offset from the first (at).
	nodes      []Derivation
	head, live int
	index      map[Key]uint64
	// slab is where recorded inputs are copied to (keepInputs).
	slab []InputRef
	// watermark: every evicted derivation had Seq < watermark, every
	// retained one has Seq >= watermark.
	watermark uint64

	// The age axis: per query, the recurrence after its latest window.
	next map[string]int

	batches    map[batchKey]*Batch
	batchOrder []stamped
	batchSeq   map[srcKey]int // per query and source: next seq
	batchFloor map[srcKey]int // per query and source: lowest retained seq
	// batchClaims counts, per batch, how many live (unexpired)
	// derivations claim it; claimed batches are never evicted by the
	// bound, mirroring evictLocked's stop-at-resident rule.
	batchClaims map[batchKey]int

	plans     map[string]string // fingerprint -> canonical plan
	collision string            // non-empty on fingerprint collision

	rebuilds int
	evicted  int
}

// stamped is a batch and its query's age axis when recorded.
type stamped struct {
	key batchKey
	rec int
}

// New builds an empty store retaining up to cap derivations (cap <= 0
// means DefaultCap).
func New(cap int) *Store {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Store{
		cap:         cap,
		index:       map[Key]uint64{},
		next:        map[string]int{},
		batches:     map[batchKey]*Batch{},
		batchSeq:    map[srcKey]int{},
		batchFloor:  map[srcKey]int{},
		batchClaims: map[batchKey]int{},
		plans:       map[string]string{},
	}
}

// srcKey names one query's source, the scope of batch sequence numbers.
type srcKey struct{ query, source string }

// RecordBatch records one serial ingest call and returns its per-source
// sequence number (-1 on a nil store).
func (s *Store) RecordBatch(query, source string, records int, panes []PaneRange) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := srcKey{query, source}
	seq := s.batchSeq[k]
	s.batchSeq[k] = seq + 1
	b := &Batch{Query: query, Source: source, Seq: seq, Records: records,
		Panes: append([]PaneRange(nil), panes...)}
	bk := batchKey{query, source, seq}
	s.batches[bk] = b
	s.batchOrder = append(s.batchOrder, stamped{bk, s.next[query]})
	n := 0
	for ; n < len(s.batchOrder); n++ {
		head := s.batchOrder[n]
		old := s.batches[head.key]
		if len(s.batchOrder)-n <= s.cap && s.next[old.Query]-head.rec <= KeepRecurrences {
			break
		}
		if s.batchClaims[head.key] > 0 {
			// The oldest batch is still claimed by a live derivation:
			// evicting it would turn a provable claim into a silent
			// hole the floor check masks as a legitimate eviction.
			// Closure must keep it; the bound resumes once the claim
			// expires.
			break
		}
		delete(s.batches, head.key)
		ok := srcKey{old.Query, old.Source}
		if old.Seq >= s.batchFloor[ok] {
			s.batchFloor[ok] = old.Seq + 1
		}
		s.evicted++
	}
	s.batchOrder = slices.Delete(s.batchOrder, 0, n)
	return seq
}

// adjustBatchClaimsLocked shifts the live-derivation claim count of
// each referenced batch by delta. Caller holds s.mu.
func (s *Store) adjustBatchClaimsLocked(query string, refs []BatchRef, delta int) {
	for _, b := range refs {
		k := batchKey{query, b.Source, b.Seq}
		n := s.batchClaims[k] + delta
		if n <= 0 {
			delete(s.batchClaims, k)
			continue
		}
		s.batchClaims[k] = n
	}
}

// BatchesForPane returns the claims of every retained batch of
// query/source on the given pane, in batch order.
func (s *Store) BatchesForPane(query, source string, pane int64) []BatchRef {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []BatchRef
	for _, o := range s.batchOrder {
		b := s.batches[o.key]
		if b.Query != query || b.Source != source {
			continue
		}
		var ranges []Range
		for _, pr := range b.Panes {
			if pr.Pane == pane {
				ranges = append(ranges, pr.R)
			}
		}
		if len(ranges) > 0 {
			out = append(out, BatchRef{Source: source, Seq: b.Seq, Ranges: ranges})
		}
	}
	return out
}

// RecordPlan registers a plan under its fingerprint. Two distinct
// plans mapping to one fingerprint (an injectivity violation) is
// latched and surfaces from Closure.
func (s *Store) RecordPlan(fp string, p Plan) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	canon := p.canonical()
	if have, ok := s.plans[fp]; ok {
		if have != canon {
			s.collision = fmt.Sprintf("fingerprint %s maps to two plans: %q vs %q", fp, have, canon)
		}
		return
	}
	s.plans[fp] = canon
}

// Plans returns a copy of the recorded fingerprint → canonical-plan
// map.
func (s *Store) Plans() map[string]string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.plans))
	for fp, p := range s.plans {
		out[fp] = p
	}
	return out
}

// RecordDerivation inserts (or, for a retained key, rebuilds) a
// derivation; the store sets its Builds and Seq and ignores its
// Consumers. A rebuild replaces the whole record, keeping only the
// node's place in the insertion order and its build count, which it
// bumps.
//
// A write whose Query differs from the stored node's is an alias, not
// a rebuild: derivation IDs embed the raw query name, so two engines
// with the same-named query sharing one store collide on ID while
// keeping distinct accounting names. Nothing was lost or recomputed —
// the node is re-homed to the latest writer without touching Builds or
// the rebuild counter.
func (s *Store) RecordDerivation(d Derivation) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Kind == "window" && d.Recurrence >= s.next[d.Query] {
		s.next[d.Query] = d.Recurrence + 1
	}
	d.Inputs, d.Consumers = s.keepInputs(&d), nil
	seq, rebuild := s.index[d.Key]
	if rebuild {
		old := s.at(seq)
		if !old.Expired {
			s.adjustBatchClaimsLocked(old.Query, old.Batches, -1)
		}
		d.Builds, d.Seq = old.Builds, seq
		if old.Query == d.Query {
			d.Builds++
			s.rebuilds++
		}
		*old = d
	} else {
		if s.live == len(s.nodes) {
			s.resize(max(2*s.live, 64))
		}
		s.seq++
		d.Builds, d.Seq = 1, s.seq
		*s.nth(s.live) = d
		s.live++
		s.index[d.Key] = s.seq
	}
	if !d.Expired {
		s.adjustBatchClaimsLocked(d.Query, d.Batches, 1)
	}
	if !rebuild {
		s.evictLocked()
	}
}

// slabRefs is how many input references one slab holds.
const slabRefs = 128

// keepInputs copies d's inputs for the store to keep. A cache's few go
// into the store's slab, a new one started when it is full, so
// recording them allocates once per slab; a slab is collected once no
// retained derivation points into it. A window's, one per partition of
// each of its panes, get an array of their own, which leaves no slab
// part-empty. Caller holds s.mu.
func (s *Store) keepInputs(d *Derivation) []InputRef {
	refs := d.Inputs
	switch {
	case len(refs) == 0:
		return nil
	case d.Kind == "window" || len(refs) > slabRefs:
		return slices.Clone(refs)
	case cap(s.slab)-len(s.slab) < len(refs):
		s.slab = make([]InputRef, 0, slabRefs)
	}
	n := len(s.slab)
	s.slab = append(s.slab, refs...)
	return s.slab[n:len(s.slab):len(s.slab)]
}

// resize moves the retained derivations, in order, into a ring of n
// slots. Caller holds s.mu.
func (s *Store) resize(n int) {
	nodes := make([]Derivation, n)
	for i := range s.live {
		nodes[i] = *s.nth(i)
	}
	s.nodes, s.head = nodes, 0
}

// nth returns the i-th retained derivation in insertion order. Caller
// holds s.mu.
func (s *Store) nth(i int) *Derivation { return &s.nodes[(s.head+i)%len(s.nodes)] }

// pos returns where the retained node of insertion sequence seq is in
// insertion order. Caller holds s.mu.
func (s *Store) pos(seq uint64) int { return int(seq - s.nth(0).Seq) }

// at returns the retained node of insertion sequence seq. Caller holds
// s.mu.
func (s *Store) at(seq uint64) *Derivation { return s.nth(s.pos(seq)) }

// lookupLocked returns the retained node k names. Caller holds s.mu.
func (s *Store) lookupLocked(k Key) (*Derivation, bool) {
	seq, ok := s.index[k]
	if !ok {
		return nil, false
	}
	return s.at(seq), true
}

// evictLocked drops the oldest expired derivations while over capacity
// or past the age bound, advancing the watermark, and halves a ring a
// third full (a cold start's registrations leave one twice the steady
// size). Resident (unexpired) nodes are never evicted. Caller holds
// s.mu.
func (s *Store) evictLocked() {
	for s.live > 0 {
		d := s.nth(0)
		if !d.Expired || s.live <= s.cap && s.next[d.Query]-d.Recurrence <= KeepRecurrences {
			break
		}
		delete(s.index, d.Key)
		if d.Seq >= s.watermark {
			s.watermark = d.Seq + 1
		}
		s.evicted++
		*d = Derivation{}
		s.head, s.live = (s.head+1)%len(s.nodes), s.live-1
	}
	if n := len(s.nodes); n > 64 && s.live < n/3 {
		s.resize(n / 2)
	}
}

// Input returns the reference a consumer records to cache pid/typ, pid
// given as bytes (typically built on the caller's stack): when retained,
// the stored key (sharing its PID string) and insertion seq, so the call
// makes no string; otherwise a fresh key and seq 0.
func (s *Store) Input(pid []byte, typ int) InputRef {
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if seq, ok := s.index[Key{string(pid), typ}]; ok {
			return InputRef{s.at(seq).Key, seq}
		}
	}
	return InputRef{Key: Key{string(pid), typ}}
}

// MarkExpired closes a derivation's cache residency: the cache was
// retired, evicted or lost, and a later registration rebuilds it.
func (s *Store) MarkExpired(k Key) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.lookupLocked(k); ok && !d.Expired {
		d.Expired = true
		s.adjustBatchClaimsLocked(d.Query, d.Batches, -1)
	}
}

// Lookup returns a deep copy of a retained derivation, its consumers
// derived.
func (s *Store) Lookup(k Key) (Derivation, bool) {
	if s == nil {
		return Derivation{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.lookupLocked(k)
	if !ok {
		return Derivation{}, false
	}
	d := copyDeriv(n)
	for i := range s.live {
		c := s.nth(i)
		for _, in := range c.Inputs {
			if in.Key == k {
				d.Consumers = appendConsumer(d.Consumers, c.Key.ID())
			}
		}
	}
	return d, true
}

// appendConsumer appends id to consumers unless it is already the last:
// consumers are gathered in insertion order, so a consumer naming one
// input twice would otherwise be listed twice.
func appendConsumer(consumers []string, id string) []string {
	if n := len(consumers); n > 0 && consumers[n-1] == id {
		return consumers
	}
	return append(consumers, id)
}

// copyDeriv is a deep copy of a stored derivation.
func copyDeriv(d *Derivation) Derivation {
	out := *d
	out.Batches = append([]BatchRef(nil), d.Batches...)
	for i, b := range out.Batches {
		out.Batches[i].Ranges = append([]Range(nil), b.Ranges...)
	}
	out.Inputs = append([]InputRef(nil), d.Inputs...)
	return out
}

// Watermark returns the eviction watermark: references with target seq
// below it may point at evicted derivations.
func (s *Store) Watermark() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Stats summarizes the store.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Nodes:                s.live,
		Batches:              len(s.batchOrder),
		DistinctFingerprints: len(s.plans),
		Rebuilds:             s.rebuilds,
		Evicted:              s.evicted,
	}
	for i := range s.live {
		d := s.nth(i)
		st.Edges += len(d.Batches) + len(d.Inputs)
	}
	return st
}

// Snapshot is a deep, deterministic copy of the whole store, suitable
// for DeepEqual comparison across -workers settings and for JSON
// export.
type Snapshot struct {
	Derivations []Derivation `json:"derivations"`
	Batches     []Batch      `json:"batches"`
	Watermark   uint64       `json:"watermark"`
	Stats       Stats        `json:"stats"`
}

// Snapshot returns a deep copy of the store in insertion order, each
// derivation's consumers derived from the retained inputs.
func (s *Store) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	st := s.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{Watermark: s.watermark, Stats: st}
	for i := range s.live {
		snap.Derivations = append(snap.Derivations, copyDeriv(s.nth(i)))
	}
	for i := range s.live {
		var id string // formatted once per consumer
		for _, in := range s.nth(i).Inputs {
			if seq, ok := s.index[in.Key]; ok {
				if id == "" {
					id = snap.Derivations[i].Key.ID()
				}
				up := &snap.Derivations[s.pos(seq)]
				up.Consumers = appendConsumer(up.Consumers, id)
			}
		}
	}
	for _, o := range s.batchOrder {
		b := *s.batches[o.key]
		b.Panes = append([]PaneRange(nil), b.Panes...)
		snap.Batches = append(snap.Batches, b)
	}
	return snap
}

// Closure verifies the store's structural invariants against the
// derivation keys of the caches the engine holds resident and returns
// every violation found:
//
//  1. every resident cache entry has a retained, unexpired derivation;
//  2. every retained derivation's upstream inputs are retained, or
//     expired, or below the eviction watermark (legitimately evicted);
//  3. every claimed batch is retained or below its source's batch
//     floor;
//  4. plan fingerprints are injective over the recorded plans.
func (s *Store) Closure(resident []Key) []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var bad []string
	for _, k := range resident {
		d, ok := s.lookupLocked(k)
		if !ok {
			bad = append(bad, fmt.Sprintf("resident cache %s has no derivation", k.ID()))
			continue
		}
		if d.Expired {
			bad = append(bad, fmt.Sprintf("resident cache %s is marked expired in the store", k.ID()))
		}
	}
	for i := range s.live {
		d := s.nth(i)
		for _, in := range d.Inputs {
			if _, ok := s.index[in.Key]; ok {
				continue
			}
			if in.Seq < s.watermark {
				continue // evicted
			}
			bad = append(bad, fmt.Sprintf("derivation %s input %s is neither retained nor evicted", d.Key.ID(), in.Key.ID()))
		}
		for _, b := range d.Batches {
			if _, ok := s.batches[batchKey{d.Query, b.Source, b.Seq}]; ok {
				continue
			}
			if b.Seq < s.batchFloor[srcKey{d.Query, b.Source}] {
				continue // evicted
			}
			bad = append(bad, fmt.Sprintf("derivation %s claims missing batch %s/%d", d.Key.ID(), b.Source, b.Seq))
		}
	}
	if s.collision != "" {
		bad = append(bad, s.collision)
	}
	sort.Strings(bad)
	return bad
}
