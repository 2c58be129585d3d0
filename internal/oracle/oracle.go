// Package oracle is the differential checker for the Redoop engine:
// after every recurrence it recomputes the window answer from the raw
// ingested records along the plain map/shuffle/reduce path — no panes,
// no caches, no recovery — and asserts byte-equality with the engine's
// cache-assisted, possibly fault-recovered output. Alongside the
// differential check it validates the structural invariants the
// paper's architecture promises after a recurrence completes:
//
//   - every Ready transition in the controller's signature lifecycle
//     is legal — upgrades/refreshes, or the §5 cache-loss rollback
//     CacheAvailable→HDFSAvailable; never a silent drop to
//     NotAvailable;
//   - the StatusMatrix done-mask agrees with actually-materialized
//     panes: every pane (and pane tuple, for joins) of the window is
//     marked done and its reduce-side caches are registered
//     CacheAvailable with their bytes resident;
//   - no node registry holds orphaned bytes (an unexpired cached
//     entry whose signature is gone) or expired-but-resident entries
//     after the managers' purge tick;
//   - window coverage: every pane in the window is consumed exactly
//     once per recurrence (pane and pane-tuple counts add up), and
//     shared-file headers attribute each consumed segment to the pane
//     the engine charged it to;
//   - when a lineage store is attached, provenance closure — every
//     resident cache copy has a live derivation and every claimed
//     batch or input edge resolves (or was legitimately evicted) —
//     plus sampled derivation audits that recompute pane bytes
//     strictly from the lineage-claimed input records and assert
//     SHA-256 equality with what the store recorded at build time.
//
// ReStore (VLDB 2012) frames why this matters: result-reuse systems
// are only as good as the equivalence of reused sub-results with
// recomputation. The oracle checks that equivalence mechanically under
// any fault schedule the chaos package can produce.
package oracle

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/window"
)

// Diff pinpoints the first divergence between the engine's window
// output and the oracle's recomputation, in canonical (sorted) order.
type Diff struct {
	Index     int    `json:"index"`
	EngineKV  string `json:"engineKV"`  // "key=value" at Index on the engine side, "" if absent
	OracleKV  string `json:"oracleKV"`  // same on the recomputation side
	EngineLen int    `json:"engineLen"` // total pairs, engine
	OracleLen int    `json:"oracleLen"` // total pairs, recomputation
}

// Verdict is one recurrence's oracle result.
type Verdict struct {
	Recurrence int `json:"recurrence"`
	// Match reports byte-equality of the canonicalized outputs.
	Match bool `json:"match"`
	// EnginePairs / OraclePairs are the compared output sizes.
	EnginePairs int `json:"enginePairs"`
	OraclePairs int `json:"oraclePairs"`
	// FirstDiff locates the first canonical-order divergence.
	FirstDiff *Diff `json:"firstDiff,omitempty"`
	// Violations lists every structural-invariant failure.
	Violations []string `json:"violations,omitempty"`
}

// OK reports whether the recurrence passed both the differential
// check and every invariant.
func (v Verdict) OK() bool { return v.Match && len(v.Violations) == 0 }

// Err summarizes a failing verdict; nil when OK.
func (v Verdict) Err() error {
	if v.OK() {
		return nil
	}
	if !v.Match {
		d := v.FirstDiff
		return fmt.Errorf("oracle: recurrence %d diverged (engine %d pairs, recomputation %d; first diff at %d: engine %q vs oracle %q; %d invariant violations)",
			v.Recurrence, v.EnginePairs, v.OraclePairs, d.Index, d.EngineKV, d.OracleKV, len(v.Violations))
	}
	return fmt.Errorf("oracle: recurrence %d violated %d invariant(s): %s",
		v.Recurrence, len(v.Violations), v.Violations[0])
}

// Oracle checks one engine's run. Create with New, route every batch
// through WrapIngest (or mirror them with Observe), and call Check
// after each RunNext.
type Oracle struct {
	eng    *core.Engine
	q      *core.Query
	frames []window.Frame

	mu       sync.Mutex
	recs     [][]records.Record // retained raw records per source
	illegal  []string           // illegal ready transitions since last Check
	excluded map[string]bool    // paths with deliberately damaged bytes
	// batches retains each non-empty ingested batch separately, indexed
	// by (source, seq − batchBase[source]); the seq axis is aligned with
	// the lineage store's per-source batch numbering because both count
	// the same serial Ingest calls. The lineage audit replays a
	// derivation's claimed record ranges from here.
	batches   [][][]records.Record
	batchBase []int
}

// New builds an oracle bound to one engine and installs its ready-
// transition hook on the engine's controller (one oracle per
// controller; a later New on a shared controller replaces the hook).
func New(eng *core.Engine) (*Oracle, error) {
	q := eng.Query()
	frames, err := q.Frames()
	if err != nil {
		return nil, err
	}
	o := &Oracle{
		eng:       eng,
		q:         q,
		frames:    frames,
		recs:      make([][]records.Record, len(q.Sources)),
		excluded:  map[string]bool{},
		batches:   make([][][]records.Record, len(q.Sources)),
		batchBase: make([]int, len(q.Sources)),
	}
	eng.Controller().SetTransitionHook(o.transition)
	return o, nil
}

// transition is the catalog's transition hook: it keeps every downgrade
// other than the §5 rollback CacheAvailable→HDFSAvailable for the next
// verdict.
func (o *Oracle) transition(pid string, typ core.CacheType, from, to core.Ready) {
	if to < from && !(from == core.CacheAvailable && to == core.HDFSAvailable) {
		o.mu.Lock()
		o.illegal = append(o.illegal,
			fmt.Sprintf("illegal ready transition %s→%s on %s (%s)", from, to, pid, typ))
		o.mu.Unlock()
	}
}

// Observe mirrors one ingested batch into the oracle's raw-record
// retention. Call it with exactly what the engine ingests (order and
// timing don't matter — only membership does).
func (o *Oracle) Observe(src int, recs []records.Record) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recs[src] = append(o.recs[src], recs...)
	if len(recs) > 0 {
		// Empty batches are skipped to stay seq-aligned with the
		// lineage store, which records only non-empty ingests.
		o.batches[src] = append(o.batches[src], append([]records.Record(nil), recs...))
	}
}

// WrapIngest tees batches into the oracle on their way to inner.
func (o *Oracle) WrapIngest(inner func(src int, recs []records.Record) error) func(src int, recs []records.Record) error {
	return func(src int, recs []records.Record) error {
		o.Observe(src, recs)
		return inner(src, recs)
	}
}

// ExcludePath exempts a DFS path from the header cross-check — used
// for files a chaos schedule deliberately corrupted or truncated.
func (o *Oracle) ExcludePath(path string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.excluded[path] = true
}

// Check verifies one completed recurrence: differential recomputation
// plus the structural invariants. It must be called after the
// RunNext that produced res and before any further fault injection.
func (o *Oracle) Check(res *core.RecurrenceResult) Verdict {
	v := Verdict{Recurrence: res.Recurrence}
	ref := o.recompute(res.Recurrence)
	eng := canonical(res.Output)
	oc := canonical(ref)
	v.EnginePairs, v.OraclePairs = len(eng), len(oc)
	v.Match = bytes.Equal(records.EncodePairs(eng), records.EncodePairs(oc))
	if !v.Match {
		v.FirstDiff = firstDiff(eng, oc)
	}
	o.checkInvariants(res, &v)
	o.prune(res.Recurrence)
	return v
}

// canonical sorts a copy of pairs by key then value, the order-
// insensitive comparison basis (the engine emits partitions in
// partition order, the flat recomputation in its own order; both are
// permutations of the same multiset iff results agree).
func canonical(pairs []records.Pair) []records.Pair {
	cp := append([]records.Pair(nil), pairs...)
	sortPairs(cp)
	return cp
}

// sortPairs and reduceSorted are the oracle's own sort/group stage: a
// library sort by (key, value) and a linear scan, deliberately naive, so a
// defect in mapreduce's grouping — two keys merged on a collision, a value
// dropped in placement — cannot agree with itself here.
func sortPairs(ps []records.Pair) {
	slices.SortFunc(ps, func(a, b records.Pair) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return bytes.Compare(a.Value, b.Value)
	})
}

// reduceSorted sorts ps in place and applies fn to each run of one key,
// returning what fn emitted, copied into a writer's segment.
func reduceSorted(fn mapreduce.ReduceFunc, ps []records.Pair) []records.Pair {
	sortPairs(ps)
	var w colfmt.PairWriter
	emit := mapreduce.EmitTo(&w)
	for i := 0; i < len(ps); {
		var values [][]byte
		key := ps[i].Key
		for ; i < len(ps) && bytes.Equal(ps[i].Key, key); i++ {
			values = append(values, ps[i].Value)
		}
		fn(key, values, emit)
	}
	return written(&w)
}

// written is what was added to w, as pairs viewing its segment.
func written(w *colfmt.PairWriter) []records.Pair {
	_, run := w.Segment()
	return run.AppendTo(nil)
}

func firstDiff(eng, oc []records.Pair) *Diff {
	n := len(eng)
	if len(oc) < n {
		n = len(oc)
	}
	d := &Diff{Index: n, EngineLen: len(eng), OracleLen: len(oc)}
	for i := 0; i < n; i++ {
		if !bytes.Equal(eng[i].Key, oc[i].Key) || !bytes.Equal(eng[i].Value, oc[i].Value) {
			d.Index = i
			break
		}
	}
	if d.Index < len(eng) {
		d.EngineKV = fmt.Sprintf("%q=%q", eng[d.Index].Key, eng[d.Index].Value)
	}
	if d.Index < len(oc) {
		d.OracleKV = fmt.Sprintf("%q=%q", oc[d.Index].Key, oc[d.Index].Value)
	}
	return d
}

// recompute derives recurrence r's window answer from the retained raw
// records along the baseline path: per-source window filter → map →
// partition → sort/group → reduce (composed with the Merge
// finalization exactly as the plain-Hadoop driver composes them),
// partitions concatenated in order.
func (o *Oracle) recompute(r int) []records.Pair {
	o.mu.Lock()
	defer o.mu.Unlock()
	nR := o.q.NumReducers
	part := o.q.Partition
	if part == nil {
		part = mapreduce.DefaultPartitioner
	}
	buckets := make([][]records.Pair, nR)
	for d, frame := range o.frames {
		lo, hi := frame.WindowRange(r)
		start, end := frame.PaneStart(lo), frame.PaneEnd(hi)
		var w colfmt.PairWriter
		emit := mapreduce.EmitTo(&w)
		for _, rec := range o.recs[d] {
			if rec.Ts >= start && rec.Ts < end {
				o.q.Maps[d](rec.Ts, rec.Data, emit)
			}
		}
		for _, p := range written(&w) {
			b := part(p.Key, nR)
			buckets[b] = append(buckets[b], p)
		}
	}
	reduceFn := o.q.Reduce
	if o.q.Merge != nil {
		reduceFn = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			var partials [][]byte
			for _, p := range mapreduce.ReduceGroups(o.q.Reduce, []mapreduce.Group{{Key: key, Values: values}}) {
				partials = append(partials, p.Value)
			}
			o.q.Merge(key, partials, emit)
		}
	}
	var out []records.Pair
	for p := 0; p < nR; p++ {
		out = append(out, reduceSorted(reduceFn, buckets[p])...)
	}
	return out
}

// prune drops retained records no future window can reference.
func (o *Oracle) prune(r int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for d, frame := range o.frames {
		lo, _ := frame.WindowRange(r + 1)
		start := frame.PaneStart(lo)
		kept := o.recs[d][:0]
		for _, rec := range o.recs[d] {
			if rec.Ts >= start {
				kept = append(kept, rec)
			}
		}
		o.recs[d] = kept
		// Batch retention drops only a fully-expired prefix: a batch
		// straddling the cutoff must stay whole because lineage claims
		// reference record indexes within the original batch.
		for len(o.batches[d]) > 0 {
			all := true
			for _, rec := range o.batches[d][0] {
				if rec.Ts >= start {
					all = false
					break
				}
			}
			if !all {
				break
			}
			o.batches[d] = o.batches[d][1:]
			o.batchBase[d]++
		}
	}
}
