package core

import (
	"log/slog"
	"slices"
	"strings"

	"redoop/internal/account"
	"redoop/internal/colfmt"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// The commit seam. The engine is a small state machine — a cache moves
// HDFS-available → cache-available → expired (§4), with the §5 rollback
// on loss — and every observer wants to hear about exactly those
// transitions. The engine describes each transition once, as a commit
// record, at the serial point where it takes effect; every sidecar
// (metrics + decision record, cost ledger, provenance store, reuse
// index, SLO monitor, logger) is a fold over that stream, and nothing
// else in the package writes into one: the controller, the scheduler
// and the status matrix hold no observer. DESIGN.md "Commit seam" has
// the rationale and the calls that deliberately stay direct.

// commitKind names one transition; the comments list the commit fields
// that carry it beyond pid/typ/node/bytes/at.
type commitKind uint8

const (
	kindIngested commitKind = iota // batch recs delivered to source src
	kindStart                      // recurrence triggered over panes [pane, paneHi]
	// kindRegistered: bytes stored on node, signature cache-available;
	// cost is the recompute a later hit avoids.
	kindRegistered
	kindHit  // lookup found signature and bytes
	kindMiss // lookup found no cache-available signature
	// kindLost: lookup found the signature but not the bytes (§5);
	// committed once the catalog has rolled the ready bit back, and
	// recorded as the rollback too.
	kindLost
	kindCrossHit // another query's cache pid feeds a reuse copy/merge
	// kindReused: own pane output pid, just registered, came from
	// inputs[0], another query's cache; mode exact|subsume.
	kindReused
	kindStale   // a reuse advertisement of pid has no resident bytes behind it
	kindLoaded  // cache task on node read pid ("" = uncached intermediate) at cost
	kindPlaced  // Equation 4 chose place.Node for a cache task; at is when it became ready
	kindCharged // cost of phase work; bytes of traffic on a phaseShuffle charge
	kindExpired // controller purged pid (node, bytes): this query retired it, no consumer remains
	// kindEvicted: replacement rolled back and removed unexpired pid;
	// cost is the recompute it ranked on.
	kindEvicted
	kindRetired // panes [pane, paneHi) of source src left every window
	kindWindow  // recurrence emitted its window (res, forecast)
	kindReplan  // source src re-planned (subPanes, proactive, forecast, deadline)
	kindFinish  // recurrence settled: expiry, purge, replacement, re-plan all done
)

// phase labels the compute bucket of a kindCharged commit; the values
// are the ledger's own, so its fold passes them straight through.
type phase = account.Phase

const (
	phaseCombine   = account.PhaseCombine
	phaseShuffle   = account.PhaseShuffle
	phaseSort      = account.PhaseSort
	phaseReduce    = account.PhaseReduce
	phaseCacheLoad = account.PhaseCacheLoad
)

// commit is one record of the seam: the union of what the consumers
// read. Which fields are meaningful depends on kind; the rest stay
// zero.
type commit struct {
	kind commitKind
	at   simtime.Time // the transition's virtual instant
	rec  int          // recurrence in flight, stamped by Engine.commit

	// Cache identity, placement and cost (recompute, load or charge).
	pid   string
	typ   CacheType
	node  int
	bytes int64
	cost  simtime.Duration
	local bool
	phase phase
	place Placement

	// Provenance of a registration: the source pane and partition the
	// bytes belong to, the job that built them, the caches they derive
	// from, the payload, and whether the entry is a fresh build worth
	// advertising for cross-query reuse.
	src          int
	pane, paneHi window.PaneID
	part         int
	job          string
	inputs       []cacheRef
	data         []byte
	publish      bool
	mode         string

	recs []records.Record

	// Recurrence summary. forecast is the Holt forecast made for this
	// recurrence (-1 before warm-up) or the one driving a re-plan;
	// newest and covered are the ingestion watermark and the window's
	// close unit.
	res             *RecurrenceResult
	forecast        simtime.Duration
	deadline        simtime.Duration
	subPanes        int
	proactive       bool
	replanned       bool
	newest, covered int64
}

// commit hands one transition to every consumer, in the fixed order
// attachConsumers built. It must only be called from the engine's
// serial commit points: the order of calls is the order of the
// tracer's decisions, ledger sums and lineage seqs, which is what
// makes them independent of the worker count. The record is
// parked in the engine so handing its address to the folds does not
// heap-allocate one per commit, and cleared afterwards so it does not
// pin a window's output until the next one.
func (e *Engine) commit(c commit) {
	c.rec = e.next
	e.pending = c
	for _, f := range e.folds {
		f(&e.pending)
	}
	e.pending = commit{}
}

// attachConsumers wires the Config's sidecars to the engine and builds
// the fold list. The order — observer, ledger, lineage, reuse, health,
// then the logger, which nothing reads — is load-bearing: the ledger
// has advanced its accrual watermark before the health sample reads
// the query's byte·seconds; the observer's and the health monitor's
// decisions share the tracer's record in this order.
func (e *Engine) attachConsumers(cfg Config, dataDir string) {
	q, mr := e.query, e.mr
	if e.obs != nil {
		e.folds = append(e.folds, e.obsFold())
	}
	// The engine claims its DFS data directory so reads/writes/
	// replication under it are attributed to this query, and propagates
	// the ledger to the MapReduce runtime so task execution charges land
	// on the same accounts. The ledger reports through its Snapshot
	// alone; it holds no observer.
	e.acct = cfg.Account
	e.acctName = e.acct.Register(q.Name, q.TenantID)
	e.queryTrack = obs.QueryTrack(e.acctName)
	if l := e.acct; l != nil {
		if mr.Account == nil {
			mr.Account = l
		}
		mr.DFS.SetAccount(l)
		mr.DFS.AttributePrefix(dataDir+"/", e.acctName)
		e.folds = append(e.folds, e.ledgerFold(l))
	}
	// The plan fingerprints are computed unconditionally — they are the
	// reuse seam — but only recorded when a store is attached.
	plan := lineagePlan(q, e.frames)
	e.planFP = lineage.Fingerprint(plan)
	e.opFP = lineage.OpFingerprint(plan)
	e.lin = cfg.Lineage
	if s := e.lin; s != nil {
		s.RecordPlan(e.planFP, plan)
		e.folds = append(e.folds, e.lineageFold(s))
	}
	if idx := cfg.Reuse; idx != nil {
		e.reuseIdx = idx
		e.folds = append(e.folds, e.reuseFold(idx))
	}
	// A shared SLO monitor keeps whatever observer it already has; an
	// engine only fills in a missing one. The deadline is the slide —
	// the instant the next window is due — for time-based windows;
	// count-based windows carry none.
	if mon := cfg.Health; mon != nil {
		if mon.Observer() == nil && e.obs != nil {
			mon.SetObserver(e.obs)
		}
		var deadline simtime.Duration
		if q.Spec().Kind == window.TimeBased {
			deadline = simtime.Duration(q.Spec().Slide)
		}
		e.healthTrk = mon.Register(q.Name, deadline)
		e.folds = append(e.folds, e.healthFold())
	}
	if cfg.Logger != nil {
		e.folds = append(e.folds, e.logFold(cfg.Logger))
	}
}

// victimsOn returns the evictable caches resident on one node, ranked
// by the one eviction policy (account.CompareVictims), best victim
// first: the registry's unexpired reduce-input rows of this query's
// source whose signature still vouches for bytes on this node, each
// with the ledger features of its open residency — the recompute cost
// stored at registration and the hits since; zeros without a ledger.
// Derived from controller and registry state on every scan, so there
// is no per-engine set to keep in step with the cache lifecycle. (An
// expired row is already queued for the next purge tick; replacement
// must not double-close its residency.) The policy is chosen here, at
// the seam, and evictOverCap carries it out.
func (e *Engine) victimsOn(reg *Registry) []account.EvictCandidate {
	prefix := e.query.rinPrefix(0, e.frames[0].Pane)
	var cands []account.EvictCandidate
	for _, row := range reg.Entries() {
		if row.Type != ReduceInput || row.Expired || !strings.HasPrefix(row.PID, prefix) {
			continue
		}
		sig, ok := e.ctrl.Lookup(row.PID, ReduceInput)
		if !ok || sig.Ready != CacheAvailable || sig.NID != reg.NodeID() || !reg.Has(row.PID, ReduceInput) {
			continue
		}
		f, _ := e.acct.Residency(row.PID, int(ReduceInput))
		cands = append(cands, account.EvictCandidate{PID: row.PID, Bytes: sig.Bytes,
			ReadyAt: sig.ReadyAt, RecomputeNS: f.RecomputeNS, Hits: f.Hits})
	}
	slices.SortFunc(cands, account.CompareVictims)
	return cands
}

// cacheData renders a cache commit as its decision event's payload.
func (c *commit) cacheData() eventlog.CacheData {
	return eventlog.CacheData{
		PID: c.pid, CacheType: c.typ.String(), Node: c.node,
		Bytes: c.bytes, Recurrence: c.rec,
	}
}

// obsFold records the transitions as the tracer's decisions, a cache
// decision's and a placement's payload unboxed (Tracer.EmitCache,
// Tracer.EmitPlacement); the metrics exposition is folded from them.
// Trace spans are not here: span IDs are data the engine threads
// through cacheRef, so the tracer is called directly where the task is
// scheduled.
func (e *Engine) obsFold() func(*commit) {
	o, qname := e.obs, e.query.Name
	// A placement's candidates are converted in one scratch slice, which
	// the tracer copies.
	var audit []eventlog.PlacementCandidate
	// The §5 rollback of a lost or evicted cache's ready bit, 2→1.
	rollback := func(c *commit) {
		o.EmitCache(c.at, eventlog.CacheRollback, qname, c.cacheData())
	}
	return func(c *commit) {
		switch c.kind {
		case kindStart:
			o.Emit(c.at, eventlog.RecurrenceStart, qname, eventlog.RecurrenceStartData{
				Recurrence: c.rec, WindowLo: int64(c.pane), WindowHi: int64(c.paneHi),
			})
		case kindRegistered:
			o.EmitCache(c.at, eventlog.CacheRegister, qname, c.cacheData())
		case kindHit:
			o.EmitCache(c.at, eventlog.CacheHit, qname, c.cacheData())
		case kindMiss:
			o.EmitCache(c.at, eventlog.CacheMiss, qname, c.cacheData())
		case kindLost:
			o.EmitCache(c.at, eventlog.CacheLost, qname, c.cacheData())
			rollback(c)
		case kindReused:
			o.EmitReuse(c.at, qname, c.mode, c.cacheData())
		case kindPlaced:
			// Every placement has candidates when decisions are recorded
			// (PickCacheTaskNode's audit), so each is a decision.
			p := &c.place
			if len(p.Candidates) > 0 {
				audit = audit[:0]
				for _, cd := range p.Candidates {
					audit = append(audit, eventlog.PlacementCandidate{Node: cd.Node,
						LoadNS: int64(cd.Load), CacheCostNS: int64(cd.CacheCost), TotalNS: int64(cd.Total)})
				}
				o.EmitPlacement(c.at, qname, eventlog.PlacementData{Recurrence: c.rec,
					Chosen: p.Node.ID, Outcome: p.Outcome, Caches: p.Caches, Candidates: audit})
			}
		case kindExpired:
			o.EmitCache(c.at, eventlog.CachePurge, qname, c.cacheData())
		case kindEvicted:
			rollback(c)
			o.EmitCache(c.at, eventlog.CacheEvict, qname, c.cacheData())
		case kindRetired:
			if o != nil {
				panes := make([]int64, 0, int(c.paneHi-c.pane))
				for p := c.pane; p < c.paneHi; p++ {
					panes = append(panes, int64(p))
				}
				o.Emit(c.at, eventlog.PaneRetire, qname, eventlog.PaneRetireData{Source: c.src, Panes: panes})
			}
		case kindWindow:
			res := c.res
			o.Emit(c.at, eventlog.RecurrenceFinish, qname, eventlog.RecurrenceFinishData{
				Recurrence:      c.rec,
				ResponseNS:      int64(res.ResponseTime),
				ForecastNS:      int64(c.forecast),
				NewPanes:        res.NewPanes,
				ReusedPanes:     res.ReusedPanes,
				NewPairs:        res.NewPairs,
				ReusedPairs:     res.ReusedPairs,
				CacheRecoveries: res.CacheRecoveries,
				Proactive:       res.Proactive,
				SubPanes:        res.SubPanes,
			})
		case kindReplan:
			o.Emit(c.at, eventlog.Replan, qname, eventlog.ReplanData{
				Recurrence: c.rec,
				Source:     c.src,
				SubPanes:   c.subPanes,
				Proactive:  c.proactive,
				ForecastNS: int64(c.forecast),
				DeadlineNS: int64(c.deadline),
			})
		}
	}
}

// ledgerFold attributes costs: residency intervals open and close with
// the cache lifecycle, hits credit the stored recompute cost net of the
// load actually paid, and charges land in their phase buckets.
func (e *Engine) ledgerFold(l *account.Ledger) func(*commit) {
	name := e.acctName
	return func(c *commit) {
		switch c.kind {
		case kindRegistered:
			// A refresh or re-homing of the same pid closes the old
			// interval ledger-side, so byte·seconds never double-count.
			l.CacheRegistered(name, c.pid, int(c.typ), c.bytes, c.at, c.cost)
		case kindHit:
			l.CacheHit(name, c.pid, int(c.typ), c.at)
		case kindCrossHit:
			l.CacheHitCross(name, c.pid, int(c.typ), c.at)
		case kindLoaded:
			// Nets a hit's saving by the load actually paid (no-op for
			// caches that were not hit this recurrence).
			if c.pid != "" {
				l.CacheLoaded(c.pid, int(c.typ), c.cost)
			}
		case kindCharged:
			l.AddCompute(name, c.phase, c.cost)
			l.AddIO(name, account.IOShuffle, c.bytes)
		case kindLost, kindExpired, kindEvicted:
			// A loss closes the residency at discovery time — the
			// earliest instant the runtime can know about it.
			l.CacheExpired(c.pid, int(c.typ), c.at)
		case kindFinish:
			// Open residencies accrue byte·seconds through the work
			// just done.
			l.Advance(c.at)
		}
	}
}

// lineageFold records provenance: a derivation per cache
// registration and emitted window, keyed by the cache's pid and type
// (the window's ID), with the raw batches (reduce inputs) or upstream
// derivations (everything else) it was built from resolved here from
// the commit's source/pane/inputs, expired when its cache is retired,
// evicted or lost.
func (e *Engine) lineageFold(s *lineage.Store) func(*commit) {
	q := e.query
	// Every partition of a pane claims the same batches; remember the
	// last answer until ingestion (or another engine's, seen at the next
	// trigger) can have changed it. The store keeps the claims by
	// reference, which is why each answer is a fresh slice.
	var memo []lineage.BatchRef
	memoSrc, memoPane := -1, window.PaneID(0)
	batches := func(src int, p window.PaneID) []lineage.BatchRef {
		if memoSrc != src || memoPane != p {
			memo = s.BatchesForPane(e.acctName, q.Sources[src].Name, int64(p))
			memoSrc, memoPane = src, p
		}
		return memo
	}
	// Input references are resolved by the PID appended into a stack
	// buffer, so a retained input shares its stored key, and gathered in
	// one scratch slice, which the store copies; so are a batch's runs.
	var (
		inputs  []lineage.InputRef
		runs    []lineage.PaneRange
		windows lineage.PairsHasher
	)
	input := func(pid []byte, typ CacheType) { inputs = append(inputs, s.Input(pid, int(typ))) }
	return func(c *commit) {
		switch c.kind {
		case kindIngested:
			// Which contiguous record-index runs land in which pane: a
			// record is compared with the current pane's bounds, and
			// placed by division only when it leaves them. Ingest calls
			// are serial per the data model, so the per-source batch
			// sequence is deterministic.
			frame := e.frames[c.src]
			runs = runs[:0]
			start, cur := 0, frame.PaneOf(c.recs[0].Ts)
			lo, hi := frame.PaneStart(cur), frame.PaneEnd(cur)
			for i := 1; i < len(c.recs); i++ {
				if ts := c.recs[i].Ts; ts < lo || ts >= hi {
					runs = append(runs, lineage.PaneRange{Pane: int64(cur), R: lineage.Range{Lo: start, Hi: i}})
					start, cur = i, frame.PaneOf(ts)
					lo, hi = frame.PaneStart(cur), frame.PaneEnd(cur)
				}
			}
			runs = append(runs, lineage.PaneRange{Pane: int64(cur), R: lineage.Range{Lo: start, Hi: len(c.recs)}})
			s.RecordBatch(e.acctName, q.Sources[c.src].Name, len(c.recs), runs)
			memoSrc = -1
		case kindStart:
			memoSrc = -1
		case kindRegistered:
			d := lineage.Derivation{
				Key:   lineage.Key{PID: c.pid, Type: int(c.typ)},
				Query: e.acctName, Fingerprint: e.planFP,
				Recurrence: c.rec, Pane: int64(c.pane), Part: c.part,
				Bytes: c.bytes, SHA: lineage.SHA(c.data),
				CostNS: int64(c.cost), Job: c.job,
			}
			switch {
			case c.typ == ReduceInput:
				d.Kind, d.Batches = "pane-rin", batches(c.src, c.pane)
			case len(q.Sources) == 1:
				d.Kind = "pane-rout"
			default:
				d.Kind = "tuple-rout"
			}
			inputs = inputs[:0]
			for _, in := range c.inputs {
				var pid pidBuf
				input(append(pid[:0], in.pid()...), in.typ)
			}
			d.Inputs = inputs
			s.RecordDerivation(d)
		case kindLost, kindExpired, kindEvicted:
			// A lost cache's derivation expires like a retired one's: the
			// rebuild that follows records it again.
			s.MarkExpired(lineage.Key{PID: c.pid, Type: int(c.typ)})
		case kindWindow:
			// The window consumes its pane (or pane-tuple) output
			// caches. Window nodes are born expired: their bytes go to
			// the consumer rather than a cache, so they must not pin the
			// store's bounded eviction the way resident caches do.
			res := c.res
			inputs = inputs[:0]
			tupleInputs := func(t paneTuple) {
				var pid pidBuf
				for part := 0; part < q.NumReducers; part++ {
					input(q.appendRoutTuplePID(pid[:0], t, part), ReduceOutput)
				}
			}
			if len(q.Sources) == 1 {
				for p := res.WindowLo; p <= res.WindowHi; p++ {
					tupleInputs(paneTuple{p})
				}
			} else {
				los, his := e.windowRanges(c.rec)
				forEachTupleRanges(los, his, tupleInputs)
			}
			s.RecordDerivation(lineage.Derivation{
				Key: lineage.WindowKey(e.acctName, c.rec), Kind: "window", Query: e.acctName,
				Fingerprint: e.planFP, Recurrence: c.rec, Pane: int64(res.WindowLo),
				Bytes: int64(colfmt.PairsSize(res.Output)), SHA: windows.SHA(res.Output),
				CostNS: int64(res.ResponseTime), Inputs: inputs, Expired: true,
			})
		}
	}
}

// reuseFold keeps the cross-query index in step with the caches behind
// it: a freshly built pane output of an eligible query is advertised
// right after its registration, with the recompute figure the ledger
// stores, and an advertisement is retracted as soon as its signature or
// its bytes are known gone, so the index never outlives its caches.
func (e *Engine) reuseFold(idx *reuse.Index) func(*commit) {
	eligible := e.reuseEligible()
	unit := int64(e.frames[0].Pane)
	return func(c *commit) {
		switch c.kind {
		case kindRegistered:
			if c.publish && eligible {
				idx.Publish(reuse.Entry{
					OpFP: e.opFP, Unit: unit, Pane: int64(c.pane), Part: c.part,
					Query: e.acctName, PID: c.pid, Type: int(c.typ), Node: c.node,
					Bytes: c.bytes, ReadyAtNS: int64(c.at), RecomputeNS: int64(c.cost),
				})
			}
		case kindLost, kindExpired, kindEvicted, kindStale:
			idx.DropPID(c.pid, int(c.typ))
		}
	}
}

// healthFold judges the recurrence once everything about it is settled
// — after the adaptive decision, so the anomaly detector can cross-
// check whether the re-planner reacted to what it saw.
func (e *Engine) healthFold() func(*commit) {
	return func(c *commit) {
		if c.kind != kindFinish {
			return
		}
		e.healthTrk.Observe(health.Sample{
			Recurrence:       c.rec,
			TriggerAt:        c.res.TriggerAt,
			CompletedAt:      c.res.CompletedAt,
			Response:         c.res.ResponseTime,
			Forecast:         max(c.forecast, 0),
			HaveForecast:     c.forecast >= 0,
			ReplanFired:      c.replanned,
			NewestPackedUnit: c.newest,
			CoveredUnit:      c.covered,
			CacheByteSeconds: e.acct.ByteSeconds(e.acctName),
		})
	}
}

// logFold writes the engine's operational log from the stream: each
// recurrence and re-plan at Info, a Warn when the window rebuilt lost
// caches, and each rollback, purge notice and placement at Debug.
func (e *Engine) logFold(l *slog.Logger) func(*commit) {
	qname := e.query.Name
	return func(c *commit) {
		switch c.kind {
		case kindWindow:
			res := c.res
			l.Info("recurrence complete",
				"query", qname, "recurrence", c.rec,
				"response", res.ResponseTime,
				"newPanes", res.NewPanes, "reusedPanes", res.ReusedPanes,
				"newTuples", res.NewPairs, "reusedTuples", res.ReusedPairs,
				"recoveries", res.CacheRecoveries, "proactive", res.Proactive)
			if res.CacheRecoveries > 0 {
				l.Warn("caches lost and rebuilt", "query", qname, "recurrence", c.rec, "count", res.CacheRecoveries)
			}
		case kindReplan:
			l.Info("adaptive re-plan",
				"query", qname, "source", c.src,
				"forecast", c.forecast, "deadline", c.deadline,
				"subPanes", c.subPanes, "proactive", c.proactive)
		case kindLost, kindEvicted:
			l.Debug("cache ready state rolled back",
				"pid", c.pid, "type", c.typ.String(),
				"from", CacheAvailable.String(), "to", HDFSAvailable.String(), "node", c.node)
		case kindExpired:
			l.Debug("cache purge notification sent",
				"pid", c.pid, "type", c.typ.String(), "node", c.node, "bytes", c.bytes)
		case kindPlaced:
			l.Debug("cache task placed",
				"node", c.place.Node.ID, "outcome", c.place.Outcome,
				"caches", c.place.Caches, "queue_delay", c.place.Queue)
		}
	}
}
