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
// evicted input from a bookkeeping hole.
type InputRef struct {
	ID  string `json:"id"`
	Seq uint64 `json:"seq"`
}

// Attempt is one task attempt's provenance: which job/task ran where,
// when (virtual time), and whether it was the winning attempt.
type Attempt struct {
	Job     string `json:"job"`
	Task    string `json:"task"`
	Phase   string `json:"phase"`
	Node    int    `json:"node"`
	Attempt int    `json:"attempt"`
	OK      bool   `json:"ok"`
	StartNS int64  `json:"startNS"`
	EndNS   int64  `json:"endNS"`
}

// CopyEvent is one step of a cache copy's history: registration,
// re-homing to another node, a consumer hit, a cross-query reuse copy,
// loss discovery, or retirement.
type CopyEvent struct {
	// Kind is register | rehome | hit | reuse | lost | expire.
	Kind string `json:"kind"`
	Node int    `json:"node"`
	// From is the previous home on a rehome (0 otherwise).
	From int   `json:"from,omitempty"`
	AtNS int64 `json:"atNS"`
}

// FileEvent is one step of a DFS file's replica history: the initial
// replica placement or a failure-driven re-replication.
type FileEvent struct {
	// Kind is place | rereplicate.
	Kind string `json:"kind"`
	// Nodes is the replica set after the event (block 0).
	Nodes []int `json:"nodes"`
	// Lost is the failed node on a rereplicate (0 otherwise).
	Lost int   `json:"lost,omitempty"`
	AtNS int64 `json:"atNS"`
}

// Fault is one applied chaos action, recorded so rebuilds can name
// their cause.
type Fault struct {
	Kind       string `json:"kind"`
	Node       int    `json:"node"`
	Path       string `json:"path,omitempty"`
	Recurrence int    `json:"recurrence"`
	AtNS       int64  `json:"atNS"`
}

// Derivation is one provenance node: a cached pane segment (reduce
// input or output), a join tuple output, or an emitted window.
type Derivation struct {
	// ID is the node's stable identity: DerivID(pid, typ) for caches,
	// WindowID(query, recurrence) for windows.
	ID string `json:"id"`
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
	// SHA is the hex SHA-256 of the derived bytes at build time — the
	// oracle recomputes claimed inputs and matches it.
	SHA string `json:"sha"`
	// CostNS is the modeled virtual cost of (re)building the node, the
	// same figure the account ledger credits on a cache hit.
	CostNS int64 `json:"costNS"`
	// Job names the mapreduce job whose attempts produced the node
	// (empty for windows); join against Attempts.
	Job string `json:"job,omitempty"`
	// Batches are the raw-input claims; Inputs the upstream
	// derivations; Consumers the downstream derivation IDs.
	Batches   []BatchRef  `json:"batches,omitempty"`
	Inputs    []InputRef  `json:"inputs,omitempty"`
	Consumers []string    `json:"consumers,omitempty"`
	Copies    []CopyEvent `json:"copies,omitempty"`
	// Builds counts how many times the node was built (1 = never
	// rebuilt); Cause names the fault behind the latest rebuild.
	Builds int    `json:"builds"`
	Cause  string `json:"cause,omitempty"`
	// Seq is the insertion sequence (eviction watermark axis).
	Seq uint64 `json:"seq"`
	// Expired marks nodes whose cached bytes are gone (retired or
	// lost); their derivations linger for history until evicted.
	Expired bool `json:"expired"`
}

// DerivID is the derivation ID of cache pid/typ (typ is the engine's
// CacheType ordinal), "<pid>|<typ>".
func DerivID(pid string, typ int) string { return string(AppendDerivID(nil, pid, typ)) }

// AppendDerivID appends DerivID(pid, typ) to b. Callers on a steady path
// append into a stack buffer and hand the bytes to the by-ID methods
// (Input, AddCopy, MarkExpired, MarkLost), which look them up without
// making a string.
func AppendDerivID(b []byte, pid string, typ int) []byte {
	return AppendDerivType(append(b, pid...), typ)
}

// AppendDerivType appends the "|<typ>" that turns a cache PID already
// in b into its derivation ID.
func AppendDerivType(b []byte, typ int) []byte {
	return strconv.AppendInt(append(b, '|'), int64(typ), 10)
}

// WindowID is the derivation ID of query's recurrence-r window output.
func WindowID(query string, r int) string { return "window/" + query + "/r" + strconv.Itoa(r) }

// BatchID is the node ID of one ingested batch.
func BatchID(query, source string, seq int) string {
	return "batch/" + query + "/" + source + "/" + strconv.Itoa(seq)
}

// batchKey names a batch by value, as BatchID does by string, so
// counting a claim on it builds no string.
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
	Faults               int `json:"faults"`
}

// Store is the bounded provenance store. All methods are safe for
// concurrent use and nil-safe, so call sites hook in unconditionally;
// writes must nevertheless come only from the engines' serial commit
// paths for cross-worker determinism (see the package comment).
type Store struct {
	mu  sync.Mutex
	cap int

	seq    uint64
	derivs map[string]*Derivation
	order  []string // insertion order, eviction scan order
	// watermark: every evicted derivation had Seq < watermark, every
	// retained one has Seq >= watermark.
	watermark uint64

	// The age axis: per query, the recurrence after its latest window,
	// and the largest of them for file histories, which name no query.
	next  map[string]int
	clock int

	batches    map[string]*Batch // key BatchID
	batchOrder []stamped
	batchSeq   map[srcKey]int // per query and source: next seq
	batchFloor map[srcKey]int // per query and source: lowest retained seq
	// batchClaims counts, per batch, how many live (unexpired)
	// derivations claim it; claimed batches are never evicted by the
	// bound, mirroring evictLocked's stop-at-resident rule.
	batchClaims map[batchKey]int

	attempts map[string][]Attempt // per job, bounded
	jobOrder []string

	files     map[string][]FileEvent // per DFS path, bounded
	fileOrder []stamped

	faults []Fault

	plans     map[string]string // fingerprint -> canonical plan
	collision string            // non-empty on fingerprint collision

	rebuilds int
	evicted  int
}

// stamped is a batch ID or file path and its age axis when recorded.
type stamped struct {
	key string
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
		derivs:      map[string]*Derivation{},
		next:        map[string]int{},
		batches:     map[string]*Batch{},
		batchSeq:    map[srcKey]int{},
		batchFloor:  map[srcKey]int{},
		batchClaims: map[batchKey]int{},
		attempts:    map[string][]Attempt{},
		files:       map[string][]FileEvent{},
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
	id := BatchID(query, source, seq)
	s.batches[id] = b
	s.batchOrder = append(s.batchOrder, stamped{id, s.next[query]})
	n := 0
	for ; n < len(s.batchOrder); n++ {
		head := s.batchOrder[n]
		old := s.batches[head.key]
		if len(s.batchOrder)-n <= s.cap && s.next[old.Query]-head.rec <= KeepRecurrences {
			break
		}
		if s.batchClaims[batchKey{old.Query, old.Source, old.Seq}] > 0 {
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

// RecordDerivation inserts (or, for an existing ID, rebuilds) a
// derivation. On a rebuild the store keeps the node's copy history and
// consumers, bumps Builds, names the most recent fault touching the
// node or its claimed paths as the cause, and reports rebuilt=true.
// Input derivations get the new node appended to their consumers.
//
// A write whose Query differs from the stored node's is an alias, not
// a rebuild: derivation IDs embed the raw query name, so two engines
// with the same-named query sharing one store collide on ID while
// keeping distinct accounting names. Nothing was lost or recomputed —
// the node is re-homed to the latest writer (content and Query
// replaced, copy history and consumers kept) without touching Builds,
// the rebuild counter, or the fault matcher.
func (s *Store) RecordDerivation(d Derivation) (rebuilt bool, cause string) {
	if s == nil {
		return false, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Kind == "window" && d.Recurrence >= s.next[d.Query] {
		s.next[d.Query] = d.Recurrence + 1
		s.clock = max(s.clock, d.Recurrence+1)
	}
	if old, ok := s.derivs[d.ID]; ok {
		if !old.Expired {
			s.adjustBatchClaimsLocked(old.Query, old.Batches, -1)
		}
		old.Recurrence = d.Recurrence
		old.Bytes = d.Bytes
		old.SHA = d.SHA
		old.CostNS = d.CostNS
		old.Fingerprint = d.Fingerprint
		old.Batches = append([]BatchRef(nil), d.Batches...)
		old.Inputs = append([]InputRef(nil), d.Inputs...)
		old.Expired = false
		s.adjustBatchClaimsLocked(d.Query, d.Batches, 1)
		if old.Query != d.Query {
			old.Query = d.Query
			old.Cause = ""
			s.linkConsumersLocked(d)
			return false, ""
		}
		old.Builds++
		old.Cause = s.matchFaultLocked(d)
		s.rebuilds++
		s.linkConsumersLocked(d)
		return true, old.Cause
	}
	s.seq++
	nd := d
	nd.Seq = s.seq
	nd.Builds = 1
	nd.Batches = append([]BatchRef(nil), d.Batches...)
	nd.Inputs = append([]InputRef(nil), d.Inputs...)
	nd.Copies = append([]CopyEvent(nil), d.Copies...)
	nd.Consumers = append([]string(nil), d.Consumers...)
	s.derivs[d.ID] = &nd
	s.order = append(s.order, d.ID)
	if !nd.Expired {
		s.adjustBatchClaimsLocked(nd.Query, nd.Batches, 1)
	}
	s.linkConsumersLocked(d)
	s.evictLocked()
	return false, ""
}

// linkConsumersLocked appends d.ID to each retained input's consumer
// list (deduplicated). Caller holds s.mu.
func (s *Store) linkConsumersLocked(d Derivation) {
	for _, in := range d.Inputs {
		up, ok := s.derivs[in.ID]
		if !ok {
			continue
		}
		dup := false
		for _, c := range up.Consumers {
			if c == d.ID {
				dup = true
				break
			}
		}
		if !dup {
			up.Consumers = append(up.Consumers, d.ID)
		}
	}
}

// evictLocked drops the oldest expired derivations while over capacity
// or past the age bound, advancing the watermark and moving the rest
// down in place. Resident (unexpired) nodes are never evicted. Caller
// holds s.mu.
func (s *Store) evictLocked() {
	n := 0
	for ; n < len(s.order); n++ {
		d := s.derivs[s.order[n]]
		if !d.Expired || len(s.order)-n <= s.cap && s.next[d.Query]-d.Recurrence <= KeepRecurrences {
			break
		}
		delete(s.derivs, d.ID)
		if d.Seq >= s.watermark {
			s.watermark = d.Seq + 1
		}
		s.evicted++
	}
	s.order = slices.Delete(s.order, 0, n)
}

// The by-ID methods below take a derivation ID as bytes — typically
// AppendDerivID into the caller's stack buffer — and index the store
// with them directly, so a call on a retained derivation makes no
// string.

// Input returns the reference a consumer's Inputs carry to derivation
// id: when retained, its stored ID string (shared, not copied) and its
// insertion seq; otherwise a fresh string and seq 0.
func (s *Store) Input(id []byte) InputRef {
	if s == nil {
		return InputRef{ID: string(id)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.derivs[string(id)]
	if !ok {
		return InputRef{ID: string(id)}
	}
	return InputRef{ID: d.ID, Seq: d.Seq}
}

// AddCopy appends a copy event to a retained derivation's history.
func (s *Store) AddCopy(id []byte, ev CopyEvent) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.derivs[string(id)]; ok {
		d.Copies = append(d.Copies, ev)
	}
}

// MarkExpired closes a derivation's cache residency (retirement) with
// an expire copy event.
func (s *Store) MarkExpired(id []byte, atNS int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.derivs[string(id)]; ok && !d.Expired {
		d.Expired = true
		s.adjustBatchClaimsLocked(d.Query, d.Batches, -1)
		d.Copies = append(d.Copies, CopyEvent{Kind: "expire", AtNS: atNS})
	}
}

// MarkLost records a discovered cache loss (crash, drop, corruption):
// the derivation is expired with a lost copy event and the most recent
// fault touching its home node or claimed paths is returned as the
// presumed cause ("" when no fault matches).
func (s *Store) MarkLost(id []byte, node int, atNS int64) (cause string) {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.derivs[string(id)]
	if !ok {
		return ""
	}
	if !d.Expired {
		s.adjustBatchClaimsLocked(d.Query, d.Batches, -1)
	}
	d.Expired = true
	d.Copies = append(d.Copies, CopyEvent{Kind: "lost", Node: node, AtNS: atNS})
	d.Cause = s.matchFaultLocked(*d)
	if d.Cause == "" {
		d.Cause = "lost on node " + strconv.Itoa(node)
	}
	return d.Cause
}

// matchFaultLocked names the most recent recorded fault plausibly
// responsible for rebuilding d: one that hit the node of d's latest
// copy, or a path-targeted fault whose path appears among d's claimed
// inputs. Caller holds s.mu.
func (s *Store) matchFaultLocked(d Derivation) string {
	node := -1
	cur := s.derivs[d.ID]
	if cur != nil {
		for i := len(cur.Copies) - 1; i >= 0; i-- {
			if cur.Copies[i].Kind == "register" || cur.Copies[i].Kind == "rehome" {
				node = cur.Copies[i].Node
				break
			}
		}
	}
	for i := len(s.faults) - 1; i >= 0; i-- {
		f := s.faults[i]
		switch f.Kind {
		case "node-crash", "cache-drop":
			if f.Node == node {
				return fmt.Sprintf("%s node %d @r%d", f.Kind, f.Node, f.Recurrence)
			}
		default:
			if f.Path != "" {
				return fmt.Sprintf("%s %s @r%d", f.Kind, f.Path, f.Recurrence)
			}
		}
	}
	return ""
}

// RecordAttempt appends one task attempt under its job, keeping the
// newest attempts bounded per job.
func (s *Store) RecordAttempt(a Attempt) {
	if s == nil || a.Job == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.attempts[a.Job]; !ok {
		s.jobOrder = append(s.jobOrder, a.Job)
	}
	list := append(s.attempts[a.Job], a)
	if len(list) > 256 {
		list = list[len(list)-256:]
	}
	s.attempts[a.Job] = list
}

// RecordFileEvent appends one replica-history event for a DFS path.
func (s *Store) RecordFileEvent(path string, ev FileEvent) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[path]; !ok {
		s.fileOrder = append(s.fileOrder, stamped{path, s.clock})
		n := 0
		for ; len(s.fileOrder)-n > s.cap || s.clock-s.fileOrder[n].rec > KeepRecurrences; n++ {
			delete(s.files, s.fileOrder[n].key)
			s.evicted++
		}
		s.fileOrder = slices.Delete(s.fileOrder, 0, n)
	}
	ev.Nodes = append([]int(nil), ev.Nodes...)
	s.files[path] = append(s.files[path], ev)
}

// RecordFault logs one applied chaos action for cause attribution.
func (s *Store) RecordFault(f Fault) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = append(s.faults, f)
	if len(s.faults) > s.cap {
		s.faults = s.faults[len(s.faults)-s.cap:]
	}
}

// Lookup returns a deep copy of a retained derivation.
func (s *Store) Lookup(id string) (Derivation, bool) {
	if s == nil {
		return Derivation{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.derivs[id]
	if !ok {
		return Derivation{}, false
	}
	return copyDeriv(d), true
}

func copyDeriv(d *Derivation) Derivation {
	out := *d
	out.Batches = append([]BatchRef(nil), d.Batches...)
	for i, b := range out.Batches {
		out.Batches[i].Ranges = append([]Range(nil), b.Ranges...)
	}
	out.Inputs = append([]InputRef(nil), d.Inputs...)
	out.Consumers = append([]string(nil), d.Consumers...)
	out.Copies = append([]CopyEvent(nil), d.Copies...)
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
		Nodes:                len(s.order),
		Batches:              len(s.batchOrder),
		DistinctFingerprints: len(s.plans),
		Rebuilds:             s.rebuilds,
		Evicted:              s.evicted,
		Faults:               len(s.faults),
	}
	for _, id := range s.order {
		d := s.derivs[id]
		st.Edges += len(d.Batches) + len(d.Inputs)
	}
	return st
}

// Snapshot is a deep, deterministic copy of the whole store, suitable
// for DeepEqual comparison across -workers settings and for JSON
// export.
type Snapshot struct {
	Derivations []Derivation           `json:"derivations"`
	Batches     []Batch                `json:"batches"`
	Attempts    map[string][]Attempt   `json:"attempts,omitempty"`
	Files       map[string][]FileEvent `json:"files,omitempty"`
	Faults      []Fault                `json:"faults,omitempty"`
	Watermark   uint64                 `json:"watermark"`
	Stats       Stats                  `json:"stats"`
}

// Snapshot returns a deep copy of the store in insertion order.
func (s *Store) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	st := s.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{Watermark: s.watermark, Stats: st}
	for _, id := range s.order {
		snap.Derivations = append(snap.Derivations, copyDeriv(s.derivs[id]))
	}
	for _, o := range s.batchOrder {
		b := *s.batches[o.key]
		b.Panes = append([]PaneRange(nil), b.Panes...)
		snap.Batches = append(snap.Batches, b)
	}
	if len(s.attempts) > 0 {
		snap.Attempts = map[string][]Attempt{}
		for _, j := range s.jobOrder {
			snap.Attempts[j] = append([]Attempt(nil), s.attempts[j]...)
		}
	}
	if len(s.files) > 0 {
		snap.Files = map[string][]FileEvent{}
		for _, o := range s.fileOrder {
			evs := make([]FileEvent, len(s.files[o.key]))
			for i, ev := range s.files[o.key] {
				ev.Nodes = append([]int(nil), ev.Nodes...)
				evs[i] = ev
			}
			snap.Files[o.key] = evs
		}
	}
	snap.Faults = append([]Fault(nil), s.faults...)
	return snap
}

// ResidentRef names one cache entry the engine currently considers
// resident; Closure checks each has a live derivation.
type ResidentRef struct {
	ID   string
	Node int
}

// Closure verifies the store's structural invariants against the
// engine's resident cache set and returns every violation found:
//
//  1. every resident cache entry has a retained, unexpired derivation;
//  2. every retained derivation's upstream inputs are retained, or
//     expired, or below the eviction watermark (legitimately evicted);
//  3. every claimed batch is retained or below its source's batch
//     floor;
//  4. plan fingerprints are injective over the recorded plans.
func (s *Store) Closure(resident []ResidentRef) []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var bad []string
	for _, r := range resident {
		d, ok := s.derivs[r.ID]
		if !ok {
			bad = append(bad, fmt.Sprintf("resident cache %s has no derivation", r.ID))
			continue
		}
		if d.Expired {
			bad = append(bad, fmt.Sprintf("resident cache %s is marked expired in the store", r.ID))
		}
	}
	for _, id := range s.order {
		d := s.derivs[id]
		for _, in := range d.Inputs {
			if _, ok := s.derivs[in.ID]; ok {
				continue
			}
			if in.Seq < s.watermark {
				continue // evicted
			}
			bad = append(bad, fmt.Sprintf("derivation %s input %s is neither retained nor evicted", id, in.ID))
		}
		for _, b := range d.Batches {
			if _, ok := s.batches[BatchID(d.Query, b.Source, b.Seq)]; ok {
				continue
			}
			if b.Seq < s.batchFloor[srcKey{d.Query, b.Source}] {
				continue // evicted
			}
			bad = append(bad, fmt.Sprintf("derivation %s claims missing batch %s/%d", id, b.Source, b.Seq))
		}
	}
	if s.collision != "" {
		bad = append(bad, s.collision)
	}
	sort.Strings(bad)
	return bad
}
