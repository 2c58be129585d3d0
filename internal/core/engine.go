package core

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
	"sync"

	"redoop/internal/account"
	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/parallel"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Config assembles a Redoop engine for one recurring query.
type Config struct {
	// MR is the underlying MapReduce runtime (required).
	MR *mapreduce.Engine
	// Query is the recurring query to execute (required).
	Query *Query
	// Controller may be shared between engines so caches and purge
	// masks span queries; nil creates a private controller.
	Controller *Controller
	// Adaptive enables the §3.3 adaptive input partitioning and
	// proactive execution. Non-adaptive Redoop still caches and
	// schedules window-aware; it just never subdivides panes or starts
	// early.
	Adaptive bool
	// DisableCacheReuse is an ablation knob: the engine still
	// partitions into panes and runs pane-granular tasks, but never
	// reuses a cache from an earlier recurrence — isolating how much
	// of Redoop's win is the caching itself versus the pane-shaped
	// execution.
	DisableCacheReuse bool
	// CacheObliviousPlacement is an ablation knob: cache-fed tasks
	// are placed on the earliest-available node regardless of where
	// their caches live, disabling the C_task term of Equation 4.
	CacheObliviousPlacement bool
	// Logger receives the engine's operational events, one line per
	// commit record: recurrence summaries, cache recoveries and adaptive
	// re-planning at Info/Warn, rollbacks, purge notices and placements
	// at Debug. Nil disables logging.
	Logger *slog.Logger
	// Hub optionally provides shared sources: a source whose CacheKey
	// names a source declared on the hub is packed once hub-side and
	// ingested through the hub rather than through this engine.
	Hub *SourceHub
	// Health optionally attaches an SLO monitor, usually shared between
	// engines so one monitor judges every query. The engine registers
	// its query at construction (deadline = the slide for time-based
	// windows) and reports every recurrence. Nil disables health
	// tracking.
	Health *health.Monitor
	// Account optionally attaches a cost ledger, usually shared between
	// engines so per-query costs land in one place. The engine registers
	// its query (and tenant) at construction, commits every slot, cache
	// and shuffle charge to it, and claims its DFS data directory so the
	// DFS attributes read/write/replication bytes to it. Nil disables
	// accounting at ~zero cost.
	Account *account.Ledger
	// Lineage optionally attaches a provenance store, usually shared
	// between engines so one store holds every query's derivation DAG.
	// The engine records, through its commit seam, a derivation node
	// for every pane cache and emitted window — input batches down to
	// record-offset ranges, upstream derivations, the plan fingerprint
	// and downstream consumers. Nil disables provenance at ~zero cost.
	Lineage *lineage.Store
	// Reuse optionally attaches a cross-query pane reuse index, shared
	// between engines over the same controller. Eligible engines
	// (single-source aggregations over a CacheKey-shared stream with a
	// Merge) publish every freshly built pane reduce-output into it and
	// probe it — by operator fingerprint and pane range — before
	// computing a pane, copying an exact hit or composing a
	// finer-grained subsumption hit with Merge instead of re-running
	// map+shuffle+reduce. Nil disables cross-query reuse at ~zero cost.
	Reuse *reuse.Index
	// CacheDiskLimit bounds each node's local bytes (panes + caches).
	// When a recurrence's periodic purge cannot bring a node under the
	// limit with expired entries alone, the engine evicts unexpired
	// reduce-input caches — the only caches rebuildable from retained
	// pane files without violating the published window — in the order
	// of the one eviction policy (account.CompareVictims). A join's
	// reduce inputs must stay resident, so NewEngine refuses a
	// multi-source query with a limit. 0 disables the limit and keeps
	// pure-expiry purging only.
	CacheDiskLimit int64
}

// RecurrenceResult reports one execution of the recurring query.
type RecurrenceResult struct {
	Recurrence int
	// WindowLo and WindowHi are the window's inclusive pane range.
	WindowLo, WindowHi window.PaneID
	// Output is the window's final result, deterministic order
	// (partitions ascending, keys ascending within each merge group).
	// Its payload bytes may alias cache bytes and are read-only; the
	// slice itself may be re-ordered (see cacheBytes).
	Output []records.Pair
	// Stats aggregates all MapReduce work of this recurrence.
	Stats mapreduce.Stats
	// TriggerAt is the window close instant the recurrence was due.
	TriggerAt simtime.Time
	// CompletedAt is when the final output was ready.
	CompletedAt simtime.Time
	// ResponseTime is CompletedAt - TriggerAt: the per-window
	// processing time the paper's Figures 6–9 plot.
	ResponseTime simtime.Duration
	// NewPanes / ReusedPanes count pane-level work per source
	// combined; NewPairs / ReusedPairs count pane pairs for joins.
	NewPanes, ReusedPanes int
	NewPairs, ReusedPairs int
	// CacheRecoveries counts caches found lost and rebuilt (§5).
	CacheRecoveries int
	// Proactive reports whether this recurrence ran in proactive mode.
	Proactive bool
	// SubPanes is the partition plan's subdivision factor in effect.
	SubPanes int
}

// Engine executes one recurring query incrementally over the MapReduce
// runtime: panes are mapped and shuffled once, reduce-side caches are
// reused across overlapping windows, and the cache-aware scheduler
// keeps work near its caches (paper §2.3).
// paneSource is one source's pane-file supplier: a query-private
// Packer or a shared view from a SourceHub.
type paneSource interface {
	Ingest([]records.Record) error
	FlushThrough(unit int64) error
	PaneInputs(p window.PaneID) ([]PaneInput, bool)
	PaneBytes(p window.PaneID) int64
	DropPaneFiles(p window.PaneID) error
	Plan() PartitionPlan
	SetPlan(PartitionPlan) error
	// NewestUnit is the ingestion watermark: the exclusive upper unit
	// bound of the newest pane holding data (0 before any ingestion).
	NewestUnit() int64
}

type Engine struct {
	// mu guards the engine state its accessors may read from another
	// goroutine — plans, proactive, next, curTrigger, expiredBound and
	// the forecast pair. RunNext is the sole writer; it takes the lock
	// only around its writes, readers take it around every access.
	mu       sync.Mutex
	mr       *mapreduce.Engine
	query    *Query
	ctrl     *Controller
	sched    *Scheduler
	analyzer *Analyzer
	profiler *Profiler
	srcs     []paneSource
	shared   []bool
	plans    []PartitionPlan
	matrix   *StatusMatrix
	// diskLimit bounds each node's local bytes, 0 for no limit.
	diskLimit int64

	frames []window.Frame // per-source window alignment

	obs *obs.Tracer

	// healthTrk is this query's registration on the SLO monitor; nil
	// without one.
	healthTrk *health.Tracker

	// acct is the (possibly shared, possibly nil) cost ledger;
	// acctName is this query's account on it — the query name, or a
	// suffixed variant when several engines run same-named queries.
	acct     *account.Ledger
	acctName string
	// queryTrack names the trace track of the query's recurrence and
	// phase spans, made once from acctName.
	queryTrack string

	// lin is the (possibly shared, possibly nil) provenance store;
	// planFP is the query's canonical plan fingerprint, computed even
	// when lineage is disabled so callers can always read it; opFP the
	// geometry-independent operator fingerprint the reuse index keys on.
	lin    *lineage.Store
	planFP string
	opFP   string

	// reuseIdx is the (possibly shared, possibly nil) cross-query
	// reuse index.
	reuseIdx *reuse.Index

	// lastForecast is the profiler's previous next-recurrence forecast,
	// compared against the realized response time to expose the Holt
	// model's error as a metric.
	lastForecast simtime.Duration
	haveForecast bool

	// curTrigger is the trigger instant of the recurrence in flight —
	// the timestamp stamped on cache lookup/registration events, whose
	// call sites have no better notion of "now".
	curTrigger simtime.Time

	// folds are the consumers of the commit seam, in the order
	// attachConsumers built; pending is the record being handed to them
	// (see Engine.commit).
	folds   []func(*commit)
	pending commit

	qIdx int
	// self is the consumer set of a cache only this query reads: the
	// controller reads a consumer set as it registers and keeps none.
	self [1]int
	// locs is runCacheTask's scratch, keys and keyEnds paneSet's: the
	// commit half is serial.
	locs    []CacheLoc
	keys    []byte
	keyEnds []int
	// jobs are the sources' pane jobs, built once: nothing changes a
	// Job after construction.
	jobs []*mapreduce.Job
	// root is the recurrence's root span in the making: the status
	// matrix's updates and retired panes and the home reassignments are
	// counted into it as they happen, and RunNext records it last.
	root obs.TaskSpan

	adaptive  bool
	proactive bool
	noReuse   bool
	next      int // next recurrence to run

	expiredBound []window.PaneID // per source: panes below are retired
}

// NewEngine validates the query and assembles all Redoop components.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.MR == nil {
		return nil, fmt.Errorf("core: engine needs a MapReduce runtime")
	}
	if cfg.Query == nil {
		return nil, fmt.Errorf("core: engine needs a query")
	}
	if err := cfg.Query.Validate(); err != nil {
		return nil, err
	}
	q := cfg.Query
	if cfg.CacheDiskLimit > 0 && len(q.Sources) > 1 {
		return nil, fmt.Errorf("core: query %s joins %d sources; a disk limit binds single-source queries only, a join's reduce inputs stay resident",
			q.Name, len(q.Sources))
	}
	ctrl := cfg.Controller
	if ctrl == nil {
		ctrl = NewController()
	}
	analyzer, err := NewAnalyzer(cfg.MR.DFS.BlockSize())
	if err != nil {
		return nil, err
	}
	profiler, err := NewProfiler(DefaultAlpha, DefaultBeta)
	if err != nil {
		return nil, err
	}
	frames, err := q.Frames()
	if err != nil {
		return nil, err
	}
	matrix, err := NewStatusMatrix(frames)
	if err != nil {
		return nil, err
	}
	dataDir := "/redoop/" + q.Name // the DFS directory pane files live under
	e := &Engine{
		mr:       cfg.MR,
		query:    q,
		ctrl:     ctrl,
		sched:    NewScheduler(cfg.MR.Cluster, cfg.MR.Cost),
		analyzer: analyzer,
		profiler: profiler,
		matrix:   matrix,
		frames:   frames,
		adaptive: cfg.Adaptive,
		noReuse:  cfg.DisableCacheReuse,
	}
	// Retirement scans start at pane zero: a source whose window is
	// smaller than the query's largest (positive frame offset) may
	// receive data before its first window starts; those panes are
	// vacuously exhausted and retire on the first pass.
	e.expiredBound = make([]window.PaneID, len(q.Sources))
	e.sched.CacheOblivious = cfg.CacheObliviousPlacement
	// The runtime's observer covers the whole stack: the engine's spans
	// and decisions land in the record its map/reduce tasks' do.
	e.obs = cfg.MR.Obs
	e.attachConsumers(cfg, dataDir)
	for src := range q.Sources {
		e.jobs = append(e.jobs, &mapreduce.Job{
			Name:             q.Name + "/" + q.Sources[src].Name,
			Map:              q.Maps[src],
			Reduce:           q.Reduce,
			Combine:          q.Combine,
			NumReducers:      q.NumReducers,
			Partition:        q.Partition,
			CacheReduceInput: true,
			LocalOutput:      true, // pane outputs are reduce-output caches
			Place:            homes{e},
			Query:            e.acctName,
		})
	}
	e.qIdx = ctrl.addQuery()
	e.self = [1]int{e.qIdx}
	for i, src := range q.Sources {
		if src.CacheKey != "" {
			ctrl.JoinGroup(q.rinScope(i), e.qIdx)
		}
	}
	for _, n := range cfg.MR.Cluster.Nodes() {
		ctrl.view(n)
	}
	e.diskLimit = cfg.CacheDiskLimit
	for i, src := range q.Sources {
		if cfg.Hub != nil && src.CacheKey != "" && cfg.Hub.Has(src.CacheKey) {
			view, err := cfg.Hub.attach(src.CacheKey, frames[i].Pane, cfg.MR.WorkerCount())
			if err != nil {
				return nil, err
			}
			e.srcs = append(e.srcs, view)
			e.shared = append(e.shared, true)
			e.plans = append(e.plans, view.Plan())
			continue
		}
		plan, err := analyzer.PlanFrame(frames[i], src.RateBytesPerUnit)
		if err != nil {
			return nil, err
		}
		pk, err := NewPacker(cfg.MR.DFS, src.Name, fmt.Sprintf("%s/%s", dataDir, src.Name), frames[i], plan)
		if err != nil {
			return nil, err
		}
		pk.SetObserver(e.obs, q.Name)
		pk.workers = cfg.MR.WorkerCount()
		e.plans = append(e.plans, plan)
		e.srcs = append(e.srcs, pk)
		e.shared = append(e.shared, false)
	}
	return e, nil
}

// Query returns the engine's query.
func (e *Engine) Query() *Query { return e.query }

// Frames returns the query's per-source window frames, index-aligned
// with its sources; callers must not modify them.
func (e *Engine) Frames() []window.Frame { return e.frames }

// MR returns the underlying MapReduce runtime.
func (e *Engine) MR() *mapreduce.Engine { return e.mr }

// ForceProactive overrides the adaptive decision, pinning the engine to
// proactive mode with the given sub-pane factor (1 restores whole
// panes and leaves proactive mode). Operators use it to bypass the
// profiler when a load spike is known ahead of time; subsequent
// adaptive re-planning may override it again.
func (e *Engine) ForceProactive(subPanes int) error {
	if subPanes < 1 {
		return fmt.Errorf("core: sub-pane factor must be >= 1, got %d", subPanes)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.plans {
		if e.shared[i] {
			continue // shared sources keep their declared granularity
		}
		plan := e.plans[i]
		plan.SubPanes = subPanes
		if err := e.srcs[i].SetPlan(plan); err != nil {
			return err
		}
		e.plans[i] = plan
	}
	e.proactive = subPanes > 1
	return nil
}

// Controller returns the (possibly shared) cache controller.
func (e *Engine) Controller() *Controller { return e.ctrl }

// Account returns the engine's cost ledger (nil when accounting is
// disabled) and AccountName the account its costs are attributed to.
func (e *Engine) Account() *account.Ledger { return e.acct }

// AccountName returns the ledger account name of this engine's query.
func (e *Engine) AccountName() string { return e.acctName }

// Lineage returns the engine's provenance store (nil when lineage is
// disabled).
func (e *Engine) Lineage() *lineage.Store { return e.lin }

// PlanFingerprint returns the query's canonical plan fingerprint — the
// hex SHA-256 of its operator lineage, stable across -workers settings
// and recurrences. It is always available, even without a lineage
// store.
func (e *Engine) PlanFingerprint() string { return e.planFP }

// Profiler returns the execution profiler.
func (e *Engine) Profiler() *Profiler { return e.profiler }

// Matrix returns the query's cache status matrix.
func (e *Engine) Matrix() *StatusMatrix { return e.matrix }

// PaneInputs returns pane p's physical segments for source src,
// whether private or shared.
func (e *Engine) PaneInputs(src int, p window.PaneID) ([]PaneInput, bool) {
	return e.srcs[src].PaneInputs(p)
}

// Plans returns the current partition plans per source.
func (e *Engine) Plans() []PartitionPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]PartitionPlan(nil), e.plans...)
}

// Proactive reports whether the next recurrence will run proactively.
func (e *Engine) Proactive() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.proactive
}

// NextRecurrence returns the index of the next recurrence RunNext will
// execute.
func (e *Engine) NextRecurrence() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.next
}

// Ingest feeds a batch of records into source src's packer. Per the
// data model (§2.1), batches arrive in timestamp order with
// non-overlapping ranges. The caller hands recs over (Packer.Ingest):
// the engine reads them until their panes flush and never writes them.
func (e *Engine) Ingest(src int, recs []records.Record) error {
	if src < 0 || src >= len(e.srcs) {
		return fmt.Errorf("core: query %q has no source %d", e.query.Name, src)
	}
	if err := e.srcs[src].Ingest(recs); err != nil {
		return err
	}
	if len(recs) > 0 {
		// Committed once the packer has accepted the batch, so a rejected
		// batch leaves no provenance for a later pane to claim. Ingest
		// builds no pane, so the provenance still precedes every pane
		// the batch lands in. A batch rejected partway (unsorted, see
		// Packer.Ingest) leaves its packed prefix with no recorded batch.
		e.commit(commit{kind: kindIngested, src: src, recs: recs})
	}
	return nil
}

// RunNext executes the next recurrence of the query and advances the
// engine. Recurrences must run in order — windows slide monotonically.
// When several engines share one MapReduce runtime, their recurrences
// must additionally be driven in global window-close order: the slot
// timelines advance monotonically, so running a later-closing window
// first would push an earlier one's tasks behind it.
func (e *Engine) RunNext() (*RecurrenceResult, error) {
	defer e.mr.DropScratch() // a recurrence's scratch is dead at its end
	r := e.next
	spec := e.query.Spec()
	closeUnit := e.frames[0].WindowClose(r) // shared trigger of all sources
	for _, src := range e.srcs {
		if err := src.FlushThrough(closeUnit); err != nil {
			return nil, err
		}
	}
	trigger := e.frames[0].At(closeUnit)
	e.mu.Lock()
	e.curTrigger = trigger
	e.mu.Unlock()
	// The forecast made for THIS recurrence at the end of the previous
	// one, captured before the profiler moves on — paired with the
	// realized response time in the window commit so forecast error is
	// auditable per recurrence.
	prevForecast := simtime.Duration(-1)
	if e.haveForecast {
		prevForecast = e.lastForecast
	}
	winLo, winHi := e.frames[0].WindowRange(r)
	e.commit(commit{kind: kindStart, at: trigger, pane: winLo, paneHi: winHi})
	// Reserve the recurrence's root span up front so every task span of
	// this recurrence can parent-link to it; the root itself is recorded
	// at the end once CompletedAt is known.
	root := e.obs.Reserve()
	e.mr.SpanParent = root
	e.root = obs.TaskSpan{}

	res, err := e.runRecurrence(r, trigger)
	if err != nil {
		return nil, err
	}
	res.Proactive = e.proactive
	res.SubPanes = e.plans[0].SubPanes
	e.commit(commit{kind: kindWindow, at: res.CompletedAt, res: res, forecast: prevForecast})

	e.retireExpired(r, res.CompletedAt)
	for _, n := range e.mr.Cluster.Nodes() {
		e.root.Purged += int32(e.ctrl.Registry(n.ID).PurgeExpired())
	}
	e.evictOverCap(res.CompletedAt)

	// Profile and adapt for the next recurrence (§3.3).
	var windowBytes int64
	for d, src := range e.srcs {
		lo, hi := e.frames[d].WindowRange(r)
		for p := lo; p <= hi; p++ {
			windowBytes += src.PaneBytes(p)
		}
	}
	// The first recurrence is a cold start (every pane processed from
	// scratch); its execution time does not predict steady-state
	// recurrences and would poison the Holt trend, so the profiler
	// starts observing from the second recurrence.
	if r > 0 {
		e.profiler.Observe(r, res.ResponseTime, windowBytes)
	}
	if e.profiler.Ready() {
		e.mu.Lock()
		e.lastForecast = e.profiler.Forecast(1)
		e.haveForecast = true
		e.mu.Unlock()
	}
	replanned := false
	if e.adaptive && e.profiler.Ready() && spec.Kind == window.TimeBased {
		deadline := simtime.Duration(spec.Slide)
		forecast := e.profiler.Forecast(1)
		for i := range e.plans {
			if e.shared[i] {
				continue // shared sources keep their declared granularity
			}
			plan, proactive := e.analyzer.Replan(e.plans[i], forecast, deadline)
			if plan.SubPanes != e.plans[i].SubPanes {
				if err := e.srcs[i].SetPlan(plan); err != nil {
					return nil, err
				}
				replanned = true
				e.commit(commit{kind: kindReplan, at: res.CompletedAt, src: i,
					subPanes: plan.SubPanes, proactive: proactive, forecast: forecast, deadline: deadline})
				e.mu.Lock()
				e.plans[i] = plan
				e.mu.Unlock()
			}
			e.mu.Lock()
			e.proactive = proactive
			e.mu.Unlock()
		}
	}

	// The recurrence is settled: the ledger accrues through it and
	// health is judged last, after the adaptive decision.
	var newest int64
	for _, src := range e.srcs {
		if u := src.NewestUnit(); u > newest {
			newest = u
		}
	}
	e.commit(commit{kind: kindFinish, at: res.CompletedAt, res: res, forecast: prevForecast,
		replanned: replanned, newest: newest, covered: closeUnit})
	// The root closes the recurrence's segment of the record, so it goes
	// last: the segment then holds the whole recurrence, from its start
	// to its health verdict. The query's tracks carry its account name,
	// so queries sharing a name and a ledger (the Figure-6 panels)
	// profile apart, as they are costed apart.
	e.root.Kind, e.root.Track, e.root.Job = obs.SpanRecurrence, e.queryTrack, e.query.Name
	e.root.Start, e.root.End, e.root.Ready, e.root.ID, e.root.Index = trigger, res.CompletedAt, trigger, root, r
	e.root.Count, e.root.Reused, e.root.Proactive = int64(res.NewPanes), res.ReusedPanes, res.Proactive
	e.obs.Task(e.root)

	e.mu.Lock()
	e.next++
	e.mu.Unlock()
	return res, nil
}

// runRecurrence executes recurrence r: every pane of every source in
// the window goes down the §5 ladder once (ensurePane), then the window
// is finalized. An aggregation merges its pane outputs — pane-based, not
// tuple-based (paper §6.2.1); a join joins its pane tuples over the
// panes' reduce inputs and combines their outputs (joinWindow).
func (e *Engine) runRecurrence(r int, trigger simtime.Time) (*RecurrenceResult, error) {
	los, his := e.windowRanges(r)
	res := &RecurrenceResult{Recurrence: r, WindowLo: los[0], WindowHi: his[0], TriggerAt: trigger}
	res.Stats.Start = trigger
	res.Stats.End = trigger
	R := e.query.NumReducers
	panes := make([]windowRefs, len(los))
	for src := range los {
		// A row per pane, and the row an aggregation builds each pane's
		// reduce inputs in (ensurePane).
		n := int(his[src]-los[src]) + 1
		slab := make([]cacheRef, (n+1)*R)
		panes[src] = windowRefs{lo: los[src], hi: his[src], rows: slab[:n*R]}
		rins := slab[n*R:]
		ahead := e.prepareNewPanes(los[src], his[src])
		for p := los[src]; p <= his[src]; p++ {
			reused, recovered, err := e.ensurePane(src, p, trigger, ahead(p), panes[src].pane(p), rins, &res.Stats)
			if err != nil {
				return nil, err
			}
			if reused {
				res.ReusedPanes++
			} else {
				res.NewPanes++
			}
			if recovered {
				res.CacheRecoveries++
			}
		}
	}
	var err error
	if len(los) == 1 {
		res.Output, err = e.finalizeAggWindow(trigger, panes[0], &res.Stats)
	} else {
		res.Output, err = e.joinWindow(res, los, his, panes)
	}
	if err != nil {
		return nil, err
	}
	res.CompletedAt = res.Stats.End
	res.ResponseTime = res.Stats.End.Sub(trigger)
	return res, nil
}

// ensurePane takes pane p of source src down the §5 recovery ladder and
// fills the per-partition caches the window reads from it: an
// aggregation pane's reduce outputs, a join source pane's reduce inputs.
// The rungs, cheapest first:
//
//  1. the pane's cached outputs (an aggregation's only; reused);
//  2. another query's outputs of the pane (tryReuseAggPane; reused);
//  3. the pane's cached reduce inputs, which survive output loss and may
//     have been built by a sibling sharing the source's CacheKey: an
//     aggregation re-reduces them (rebuildAggOutputs), a join reads them
//     as they are (reused);
//  4. the map rung: the pane's DFS files mapped, shuffled and, for an
//     aggregation, reduced.
//
// An aggregation pane that a rung below the first built is marked done
// in the status matrix. recovered reports, for an aggregation, that an
// output was lost; for a join, that a probed input had a signature, so
// its bytes were lost. pp is the pane's map compute when
// prepareNewPanes ran it ahead, nil otherwise. refs is the pane's row of
// the window; rins is scratch an aggregation probes and builds the pane's
// reduce inputs in, dead once the pane is settled.
func (e *Engine) ensurePane(src int, p window.PaneID, trigger simtime.Time, pp *panePrep, refs, rins []cacheRef, stats *mapreduce.Stats) (reused, recovered bool, err error) {
	q := e.query
	agg := len(q.Sources) == 1 // only an aggregation has a pane output to probe and a reduce to redo
	certain, mapped := pp != nil || e.willMapPane(p), false
	defer func() {
		if err == nil && certain && !mapped {
			err = fmt.Errorf("core: pane %d was certain to be mapped, yet a cache rung served it", int64(p))
		}
	}()
	if agg && !e.noReuse {
		if done, _ := e.matrix.Done(p); done {
			if all, _ := e.probeParts(refs, ReduceOutput, src, paneTuple{p}); all {
				return true, false, nil
			}
			recovered = true
		}
	}
	if reused, err = e.tryReuseAggPane(p, trigger, refs, stats); err != nil {
		return false, recovered, err
	}
	if !agg {
		rins = refs // a join pane's caches are its reduce inputs
	}
	all := false
	if !reused && !e.noReuse {
		var known bool
		all, known = e.probeParts(rins, ReduceInput, src, paneTuple{p})
		if !agg {
			recovered = known // a join pane has no output rung: its loss is found here
		}
	}
	switch {
	case reused: // by the reuse rung
	case all && !agg:
		return true, false, nil
	case all:
		err = e.rebuildAggOutputs(p, trigger, rins, refs, stats)
	default:
		mapped = true
		if pp == nil {
			gs := e.mr.Groupers(nil)
			pp = e.preparePane(src, p, gs)
			e.mr.PutGroupers(gs)
		}
		switch {
		case !agg:
			err = e.buildJoinInputs(src, p, trigger, pp, refs, stats)
		case e.proactive && len(pp.ins) > 1:
			err = e.processAggPaneProactive(p, trigger, pp, refs, rins, stats)
		default:
			err = e.buildAggPane(p, trigger, pp, refs, rins, stats)
		}
	}
	if err != nil {
		return false, recovered, err
	}
	if agg {
		if err = e.matrix.Update(p); err == nil {
			e.root.Updates++
		}
	}
	return reused, recovered, err
}

// windowRefs is one source's cache references for the panes of a
// window, [lo, hi]: pane p's per-partition row is pane(p), each a row of
// one slab.
type windowRefs struct {
	lo, hi window.PaneID
	rows   []cacheRef
}

// pane returns pane p's row.
func (w windowRefs) pane(p window.PaneID) []cacheRef {
	R := len(w.rows) / (int(w.hi-w.lo) + 1)
	i := int(p-w.lo) * R
	return w.rows[i : i+R : i+R]
}

// cacheRef locates one registered cache. key is the node-local key its
// bytes are stored under, resolved once, when the cache is registered
// or hit, so a read probes only the node's file system; its suffix is
// the cache's PID.
type cacheRef struct {
	key     string
	typ     CacheType
	node    int
	readyAt simtime.Time
	bytes   int64
	// span is the task span that produced the cached bytes, when it was
	// produced within the current recurrence; zero for caches carried
	// over from an earlier recurrence (a cache hit short-circuits the
	// dependency walk at the trigger).
	span obs.SpanID
}

// loc converts the reference into the scheduler's cost term.
func (c cacheRef) loc() CacheLoc { return CacheLoc{Node: c.node, Bytes: c.bytes} }

// pid returns the cache's PID, "" for a reference to no cache.
func (c cacheRef) pid() string {
	if c.key == "" {
		return ""
	}
	return c.key[len(cacheDir(c.typ)):]
}

// cacheMeta is what a registration knows beyond the bytes and their
// home: the task span that produced them, the recompute cost a future
// hit on the entry avoids — actual task durations where the cold run
// measured them, iocost-modeled otherwise — and the entry's provenance:
// the source pane and partition it belongs to, the job that built it,
// and the caches it was derived from (none for a reduce input, which
// derives from the pane's raw batches). publish marks a pane output
// built from the query's own inputs, worth advertising for cross-query
// reuse; copies of another query's output are not re-advertised. users
// is the cache's consumer set, nil for this query alone: reduce-input
// caches of shared sources are claimed by every query in the sharing
// group (rinUsers), so one query's expiry cannot purge a cache a
// sibling still needs.
type cacheMeta struct {
	span      obs.SpanID
	recompute simtime.Duration
	src       int
	pane      window.PaneID
	part      int
	job       string
	inputs    []cacheRef
	users     []int
	publish   bool
}

// registerCache persists bytes as a cache on a node and registers its
// signature, claiming it for meta.users (Controller.register). rec is
// the cache's record, naming the cache: a cacheSet's, or newRecord's
// for a cache registered alone.
func (e *Engine) registerCache(rec *cacheRecord, node int, readyAt simtime.Time, data []byte, meta cacheMeta) cacheRef {
	pid, typ := rec.PID, rec.Type
	users := meta.users
	if users == nil {
		users = e.self[:]
	}
	key := e.ctrl.register(node, rec, readyAt, data, users)
	e.commit(commit{kind: kindRegistered, at: readyAt, pid: pid, typ: typ, node: node,
		bytes: int64(len(data)), cost: meta.recompute, data: data,
		src: meta.src, pane: meta.pane, part: meta.part, job: meta.job, inputs: meta.inputs, publish: meta.publish})
	return cacheRef{key: key, typ: typ, node: node, readyAt: readyAt, bytes: int64(len(data)), span: meta.span}
}

// paneSet lays out the records of pane tuple t's caches that share its
// lifetime: with rin, the reduce inputs of source src's pane t[0], with
// rout, the tuple's reduce outputs, each by partition.
func (e *Engine) paneSet(src int, t paneTuple, rin, rout bool) cacheSet {
	q, R := e.query, e.query.NumReducers
	b, ends := e.keys[:0], e.keyEnds[:0]
	for part := 0; rin && part < R; part++ {
		b = q.appendRinPID(append(b, cacheDir(ReduceInput)...), src, e.frames[src].Pane, t[0], part)
		ends = append(ends, len(b))
	}
	for part := 0; rout && part < R; part++ {
		b = q.appendRoutTuplePID(append(b, cacheDir(ReduceOutput)...), t, part)
		ends = append(ends, len(b))
	}
	e.keys, e.keyEnds = b, ends
	nrin := 0 // the reduce inputs come first
	if rin {
		nrin = R
	}
	keys, recs := string(b), make([]cacheRecord, len(ends))
	for i, lo := 0, 0; i < len(ends); i++ {
		typ := ReduceInput
		if i >= nrin {
			typ = ReduceOutput
		}
		key := keys[lo:ends[i]]
		recs[i] = cacheRecord{Signature: Signature{PID: key[len(cacheDir(typ)):], Type: typ}, key: key}
		lo = ends[i]
	}
	return cacheSet{rin: recs[:nrin], rout: recs[nrin:]}
}

// rinUsers returns the consumer set of source src's reduce-input
// caches: the full sharing group for shared sources, just this query
// otherwise. A shared source's group is a copy, read once per pane.
func (e *Engine) rinUsers(src int) []int {
	if e.query.Sources[src].CacheKey == "" {
		return e.self[:]
	}
	if g := e.ctrl.Group(e.query.rinScope(src)); len(g) > 0 {
		return g
	}
	return e.self[:]
}

// lookupCache returns the cache's reference if its signature says it is
// cache-available AND its bytes are really present on the node (a lost
// cache is the failure Figure 9 injects): Controller.acquire, which
// rolls a lost cache back to HDFS-available, and the caller's ladder
// rebuilds the pane on its lower rung (§5). The PID comes as bytes the
// caller may build on its stack; only a miss copies them. known reports
// that the signature exists, whatever its ready bit.
func (e *Engine) lookupCache(pidBytes []byte, typ CacheType) (ref cacheRef, ok, known bool) {
	ref, f := e.ctrl.acquire(pidBytes, typ, e.qIdx)
	switch f {
	case unknown, unready:
		e.commit(commit{kind: kindMiss, at: e.curTrigger, pid: string(pidBytes), typ: typ, node: -1})
		return cacheRef{}, false, f == unready
	case lost:
		e.commit(commit{kind: kindLost, at: e.curTrigger, pid: ref.pid(), typ: typ, node: ref.node, bytes: ref.bytes})
		return cacheRef{}, false, true
	}
	e.commit(commit{kind: kindHit, at: e.curTrigger, pid: ref.pid(), typ: typ, node: ref.node, bytes: ref.bytes})
	return ref, true, true
}

// probeParts fills refs with the partition caches of one pane's reduce
// input (typ ReduceInput: pane t[0] of source src) or of one pane tuple's
// reduce output (ReduceOutput), looking them up in partition order and
// stopping at the first miss. known reports that a probed signature
// existed, so a miss after it was a loss.
func (e *Engine) probeParts(refs []cacheRef, typ CacheType, src int, t paneTuple) (all, known bool) {
	q := e.query
	var buf pidBuf
	for part := range refs {
		var pid []byte
		if typ == ReduceInput {
			pid = q.appendRinPID(buf[:0], src, e.frames[src].Pane, t[0], part)
		} else {
			pid = q.appendRoutTuplePID(buf[:0], t, part)
		}
		ref, ok, sig := e.lookupCache(pid, typ)
		known = known || sig
		if !ok {
			return false, known
		}
		refs[part] = ref
	}
	return true, known
}

// home returns partition part's home node, where a pane's caches go
// when no task placed them and a pane job's reducer runs (homes), and
// counts a reassignment away from a dead home.
func (e *Engine) home(part int) (*cluster.Node, error) {
	n, reassigned := e.sched.HomeNode(part)
	if reassigned {
		e.root.Rehomed++
	}
	if n == nil {
		return nil, fmt.Errorf("core: no alive node to home partition %d", part)
	}
	return n, nil
}

// homes is a pane job's mapreduce.Placement. Its map tasks go where
// Hadoop would put them (scheduling new data is "no different than in
// Hadoop", §4.3); its reduce partitions are pinned to their home nodes,
// so reduce-side caches accumulate where later recurrences can reuse
// them locally.
type homes struct{ e *Engine }

func (homes) PlaceMap(mr *mapreduce.Engine, sp mapreduce.Split, ready simtime.Time) *cluster.Node {
	return mapreduce.DefaultPlacement{}.PlaceMap(mr, sp, ready)
}

func (h homes) PlaceReduce(_ *mapreduce.Engine, _ *mapreduce.Job, part int, _ simtime.Time) *cluster.Node {
	n, _ := h.e.home(part)
	return n
}

// cacheBytes returns a cache's stored bytes on its node. Ownership:
// writers hand their buffer over to the catalog, stored bytes are
// immutable from then on, and readers get views — these are the stored
// bytes themselves and decoded pairs alias them. A view survives expiry,
// eviction, re-registration and node loss of its cache unchanged, so a
// window's Output may be kept across recurrences, its payload bytes
// read-only. The reference's key is all a read needs: only the catalog
// writes a cache's bytes and every removal of its row deletes them.
func (e *Engine) cacheBytes(ref cacheRef) ([]byte, error) {
	data, ok := e.mr.Cluster.Node(ref.node).GetLocal(ref.key)
	if !ok {
		return nil, fmt.Errorf("core: cache %s (%v) lost from node %d mid-recurrence", ref.pid(), ref.typ, ref.node)
	}
	return data, nil
}

// sortedRuns appends to runs each cache of refs as the run ReduceRuns
// merges (SortedRun): the view of its stored bytes, once validated.
func (e *Engine) sortedRuns(runs []colfmt.PairRun, refs []cacheRef) ([]colfmt.PairRun, error) {
	for _, ref := range refs {
		data, err := e.cacheBytes(ref)
		if err != nil {
			return runs, err
		}
		run, err := mapreduce.SortedRun(data)
		if err != nil {
			return runs, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// gatherCaches decodes the non-empty caches of groups into one array,
// group after group, each group's caches in order. Pairs are counted
// from segment headers first, so the array is allocated once and the
// workers decode each cache into its own sub-range.
func (e *Engine) gatherCaches(groups [][]cacheRef) ([]records.Pair, error) {
	type source struct { // a cache's bytes and where its pairs go: up to the next one's lo
		data []byte
		lo   int
	}
	n := 0
	for _, refs := range groups {
		n += len(refs)
	}
	srcs := make([]source, 0, n)
	total := 0
	for _, refs := range groups {
		for _, ref := range refs {
			if ref.bytes == 0 {
				continue
			}
			data, err := e.cacheBytes(ref)
			if err != nil {
				return nil, err
			}
			n, err := colfmt.CountPairs(data)
			if err != nil {
				return nil, err
			}
			srcs = append(srcs, source{data, total})
			total += n
		}
	}
	all := make([]records.Pair, total)
	if err := parallel.ForErr(e.mr.WorkerCount(), len(srcs), func(i int) error {
		hi := total
		if i+1 < len(srcs) {
			hi = srcs[i+1].lo
		}
		_, err := colfmt.AppendDecodedPairs(all[srcs[i].lo:srcs[i].lo:hi], srcs[i].data)
		return err
	}); err != nil {
		return nil, err
	}
	return all, nil
}

// cachedReduce is one partition's reduce over its caches: the encoded
// output, its view, and the size of the pairs read.
type cachedReduce struct {
	data    []byte
	out     colfmt.PairRun
	inBytes int64
}

// reduceCached reduces each partition's caches, caches[part], with fn,
// merged off their columns (SortedRun + Grouper.ReduceRuns) — pure
// compute, fanned out with one pooled Grouper per worker; a partition
// with no caches stays zero. Every partition's caches are read and
// validated before it returns, so a caller registers nothing of a
// damaged set; the error is the lowest partition's, whichever worker
// met it.
func (e *Engine) reduceCached(fn mapreduce.ReduceFunc, caches [][]cacheRef) ([]cachedReduce, error) {
	parts := make([]cachedReduce, len(caches))
	errs := make([]error, len(caches))
	stride := 0
	for _, refs := range caches {
		stride = max(stride, len(refs))
	}
	groupers := e.mr.Groupers(nil)
	views := make([]colfmt.PairRun, len(groupers)*stride) // a share per pool worker: one partition's runs
	parallel.ForWorker(len(groupers), len(caches), func(worker, part int) {
		if len(caches[part]) == 0 {
			return
		}
		cr, g := &parts[part], &groupers[worker]
		runs, err := e.sortedRuns(views[worker*stride:worker*stride:(worker+1)*stride], caches[part])
		if err != nil {
			errs[part] = err
			return
		}
		for i := range runs {
			cr.inBytes += runs[i].Size()
		}
		cr.data, cr.out = g.ReduceRuns(fn, runs)
	})
	e.mr.PutGroupers(groupers)
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return parts, nil
}

// finalizeMerged runs the window's finalization merge: partition
// part's result is q.Merge over caches[part] (the partition's non-empty
// partial outputs, in window order). Each merge is scheduled by
// Equation 4 and cannot complete before the trigger.
func (e *Engine) finalizeMerged(caches [][]cacheRef, trigger simtime.Time, stats *mapreduce.Stats) ([]records.Pair, error) {
	parts, err := e.reduceCached(e.query.Merge, caches)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, cr := range parts {
		n += cr.out.Len()
	}
	output := slices.Grow([]records.Pair(nil), n)
	for part, cr := range parts {
		if len(caches[part]) == 0 {
			continue
		}
		outBytes := cr.out.Size()
		e.runCacheTask(obs.TaskSpan{Kind: obs.SpanFinalize, Part: part}, phaseReduce, trigger, caches[part],
			e.mr.Cost.MergeTask(cr.inBytes, outBytes), stats)
		stats.ReduceTasks++
		stats.BytesCacheRead += cr.inBytes
		stats.BytesOutput += outBytes
		output = cr.out.AppendTo(output)
	}
	return output, nil
}

// panePrep is the compute half of one pane's map rung: its segments,
// each one's prepared map phase, an aggregation's reducers and each
// partition's reduce-input cache, or what went wrong. Only a proactive
// aggregation over several segments keeps their map outputs.
type panePrep struct {
	ins   []PaneInput
	preps []*mapreduce.MapPhasePrep
	red   []mapreduce.ReducerResult
	rin   [][]byte
	err   error
}

// preparePane maps every segment of pane p of source src, reduces an
// aggregation's partitions with gs, a Grouper per goroutine, encodes each
// partition, sorted, as its reduce-input cache, and hands the map outputs
// back: pure compute, so panes may be prepared at once and ahead. A pane
// of one segment is reduced and encoded off its key groups, its pairs
// never laid out.
func (e *Engine) preparePane(src int, p window.PaneID, gs []mapreduce.Grouper) *panePrep {
	ins, ok := e.srcs[src].PaneInputs(p)
	if !ok {
		return &panePrep{err: fmt.Errorf("core: query %q: pane %d of source %d not flushed", e.query.Name, p, src)}
	}
	job, agg := e.jobs[src], len(e.query.Sources) == 1
	pp := &panePrep{ins: ins, preps: make([]*mapreduce.MapPhasePrep, len(ins))}
	pp.err = parallel.ForErr(e.mr.WorkerCount(), len(ins), func(i int) error {
		var err error
		pp.preps[i], err = e.mr.PrepareMapPhase(job, []mapreduce.Input{ins[i].Input})
		return err
	})
	if pp.err != nil || agg && e.proactive && len(ins) > 1 {
		return pp
	}
	parts, groups := mapreduce.PreparedParts(pp.preps, job.NumReducers)
	if agg {
		pp.red = e.mr.PrepareReducePhase(job, parts, groups, gs) // grouping pairs sorts them in place
	}
	pp.rin = rinSegments(job.NumReducers, parts, groups)
	parallel.For(len(gs), job.NumReducers, func(part int) {
		switch {
		case groups != nil:
			colfmt.PutGroups(pp.rin[part], groups[part])
		case len(parts[part]) > 0:
			if !agg {
				mapreduce.SortPairs(parts[part])
			}
			colfmt.PutPairs(pp.rin[part], parts[part])
		}
	})
	for _, prep := range pp.preps {
		prep.Release()
	}
	return pp
}

// rinSegments cuts one exactly-sized buffer into a pane's R reduce-input
// segments, partition part's sized for groups[part] when groups is not
// nil, else for parts[part]; an empty partition's is nil. Each is
// capacity-limited, so its cache's bytes never reach a sibling's.
func rinSegments(R int, parts [][]records.Pair, groups [][]mapreduce.Group) [][]byte {
	var stack [64]int
	sizes, total := stack[:0], 0
	for part := range R {
		n := 0
		if groups != nil {
			n = colfmt.GroupsSize(groups[part])
		} else {
			n = colfmt.PairsSize(parts[part])
		}
		sizes, total = append(sizes, n), total+n
	}
	buf, segs := make([]byte, total), make([][]byte, R)
	for part, off := 0, 0; part < R; part++ {
		if n := sizes[part]; n > 0 {
			segs[part], off = buf[off:off+n:off+n], off+n
		}
	}
	return segs
}

// commitPaneMapPhase schedules a prepared pane's map tasks. In
// proactive mode each segment becomes schedulable as its data arrives;
// otherwise the whole pane waits for the trigger. Header lookups for
// shared multi-pane files are charged as extra read bytes. Commits
// replay serially in segment order so the timeline is identical to a
// serial run.
func (e *Engine) commitPaneMapPhase(src int, p window.PaneID, trigger simtime.Time, pp *panePrep, stats *mapreduce.Stats) (*mapreduce.MapPhaseResult, error) {
	if pp.err != nil {
		return nil, pp.err
	}
	var parts []*mapreduce.MapPhaseResult
	earliest := trigger
	for i, seg := range pp.ins {
		ready := trigger
		if e.proactive {
			ready = simtime.Max(seg.AvailableAt, 0)
		}
		if i == 0 || ready < earliest {
			earliest = ready
		}
		mp, err := e.mr.CommitMapPhase(pp.preps[i], ready)
		if err != nil {
			return nil, err
		}
		mp.Stats.BytesRead += seg.HeaderBytes
		parts = append(parts, mp)
	}
	merged := mapreduce.MergeMapPhases(parts, e.query.NumReducers, earliest)
	stats.Accumulate(merged.Stats)
	e.obs.Task(obs.TaskSpan{Kind: obs.SpanPhase, Track: e.queryTrack, Start: earliest, End: merged.LastMapEnd,
		Input: e.query.Sources[src].Name, Pane: int64(p), Count: int64(len(pp.ins))})
	return merged, nil
}

// cacheTask reports one scheduled cache-fed task: where it ran, when it
// ended, its slot occupancy, and the task span recorded for it.
type cacheTask struct {
	node int
	end  simtime.Time
	dur  simtime.Duration
	span obs.SpanID
}

// runCacheTask schedules one cache-fed reduce-style task: the node is
// chosen by Equation 4, the caches are charged local/remote reads, and
// work is the supplied extra duration. label is the task's span, its
// kind and what it names (pane, partition, group) filled in; the rest
// is filled in here when an observer records it. The span depends on the
// spans that produced the caches this recurrence (a carried-over cache
// contributes no edge — the hit short-circuits the walk), and
// each named cache's load cost is committed, for the cost ledger to net
// out of the hit's saving. The slot time is charged in two parts:
// the cache-load share under phaseCacheLoad, the supplied work under
// the caller's phase, summing exactly to the node's AddLoad, and is
// added to stats' ReduceTime; the task's end bounds stats' End.
func (e *Engine) runCacheTask(label obs.TaskSpan, ph phase, ready simtime.Time, caches []cacheRef, work simtime.Duration, stats *mapreduce.Stats) cacheTask {
	locs := slices.Grow(e.locs[:0], len(caches))[:len(caches)]
	e.locs = locs
	for i, c := range caches {
		locs[i] = c.loc()
		if c.readyAt > ready {
			ready = c.readyAt
		}
	}
	pl := e.sched.PickCacheTaskNode(ready, locs, e.obs != nil)
	e.commit(commit{kind: kindPlaced, at: ready, place: pl})
	node := pl.Node
	load := e.sched.CacheCost(node.ID, locs)
	dur := load + work
	start, end := node.Reduce.Acquire(ready, dur)
	node.AddLoad(dur)
	stats.ReduceTime += dur
	stats.End = simtime.Max(stats.End, end)
	e.commit(commit{kind: kindCharged, phase: phaseCacheLoad, cost: load})
	e.commit(commit{kind: kindCharged, phase: ph, cost: work})
	for _, c := range caches {
		local := c.node == node.ID
		e.commit(commit{kind: kindLoaded, at: start, pid: c.pid(), typ: c.typ, node: node.ID,
			bytes: c.bytes, cost: e.mr.Cost.CacheRead(c.bytes, local)})
		if local {
			label.LocalCaches++
			label.LocalBytes += c.bytes
		} else {
			label.RemoteBytes += c.bytes
		}
	}
	var span obs.SpanID
	if e.obs != nil {
		var buf [8]obs.SpanID
		deps := buf[:0]
		for _, c := range caches {
			if c.span != 0 { // most caches were carried over: no edge
				deps = append(deps, c.span)
			}
		}
		label.WaitOn(deps...)
		label.Track, label.Start, label.End, label.Ready = obs.NodeTrack(node.ID), start, end, ready
		label.Parent, label.Job, label.Count = e.mr.SpanParent, e.query.Name, int64(len(caches))
		span = e.obs.Task(label)
	}
	return cacheTask{node: node.ID, end: end, dur: dur, span: span}
}

// retireExpired marks panes that have slid out of every window (as of
// the *next* recurrence) and exhausted their lifespans as done for this
// query, triggering purge notifications, and shifts the status matrix.
// Each source retires against its own window frame; the per-source
// bound advances only past the leading run of exhausted panes so a
// pane with pending partner work is retried next recurrence. `at` is
// the recurrence's completion instant — the ledger closes purged
// caches' byte·second residency there, but only when MarkQueryDone
// reports the cache actually purged (shared caches survive until every
// consumer retires them, and keep accruing until then).
func (e *Engine) retireExpired(r int, at simtime.Time) {
	R := e.query.NumReducers
	n := len(e.query.Sources)
	var buf pidBuf
	retire := func(pid []byte, typ CacheType) {
		if s := e.ctrl.markQueryDone(pid, typ, e.qIdx); s != nil {
			e.commit(commit{kind: kindExpired, at: at, pid: s.PID, typ: typ, node: s.NID, bytes: s.Bytes})
		}
	}
	for d := 0; d < n; d++ {
		nextLo, _ := e.frames[d].WindowRange(r + 1)
		p := e.expiredBound[d]
		for ; p < nextLo; p++ {
			if !e.matrix.Exhausted(d, p) {
				break
			}
			for part := 0; part < R; part++ {
				retire(e.query.appendRinPID(buf[:0], d, e.frames[d].Pane, p, part), ReduceInput)
				if n == 1 {
					retire(e.query.appendRoutTuplePID(buf[:0], paneTuple{p}, part), ReduceOutput)
				}
			}
			if n > 1 {
				// Tuple outputs expire when the tuple can appear in
				// no future window: once pane p has left every window
				// of its source, every tuple with p at that
				// coordinate (partners within p's lifespan) is dead.
				e.forEachLifespanTuple(d, p, func(t paneTuple) {
					for part := 0; part < R; part++ {
						retire(e.query.appendRoutTuplePID(buf[:0], t, part), ReduceOutput)
					}
				})
			}
			// The pane's DFS files exist only to (re)build caches; an
			// expired pane can never be needed again, so its files are
			// garbage-collected to bound DFS growth ("after the
			// recurring query finishes, all files storing cached data
			// are removed", §5 — done incrementally here). Deletion
			// failures are not fatal; the file lingers.
			_ = e.srcs[d].DropPaneFiles(p)
		}
		if p > e.expiredBound[d] {
			e.commit(commit{kind: kindRetired, at: e.curTrigger, src: d, pane: e.expiredBound[d], paneHi: p})
			e.mu.Lock()
			e.expiredBound[d] = p
			e.mu.Unlock()
		}
	}
	for _, panes := range e.matrix.Shift(r + 1) {
		e.root.Retired += int32(len(panes))
	}
}

// forEachLifespanTuple enumerates the tuples with pane p pinned at
// dimension dim and every other coordinate ranging over p's lifespan
// in that dimension.
func (e *Engine) forEachLifespanTuple(dim int, p window.PaneID, fn func(paneTuple)) {
	n := len(e.query.Sources)
	los := make([]window.PaneID, n)
	his := make([]window.PaneID, n)
	for d := 0; d < n; d++ {
		if d == dim {
			los[d], his[d] = p, p
			continue
		}
		lo, hi, ok := e.frames[dim].LifespanIn(p, e.frames[d])
		if !ok {
			return // pane precedes window 0: no tuples exist
		}
		los[d], his[d] = lo, hi
	}
	forEachTupleRanges(los, his, fn)
}
