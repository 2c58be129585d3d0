package main

// The -json-out run summary: a stable, machine-readable record of one
// bench invocation. bench-trajectory/FIGS.json is this record for
// -fig all -reuse at the default scale, checked in and compared byte
// for byte in CI, so it holds virtual quantities only and no host
// setting.

import (
	"encoding/json"
	"io"
	"sort"

	"redoop/internal/account"
	"redoop/internal/experiments"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/obs"
	"redoop/internal/profile"
)

type windowJSON struct {
	Window     int   `json:"window"`
	ResponseNS int64 `json:"responseNS"`
	ShuffleNS  int64 `json:"shuffleNS"`
	ReduceNS   int64 `json:"reduceNS"`
}

type seriesJSON struct {
	System string `json:"system"`
	// MakespanNS sums every window's response time; MeanSteadyNS
	// averages from window 2 onward (the paper's speedup basis).
	MakespanNS     int64        `json:"makespanNS"`
	MeanSteadyNS   int64        `json:"meanSteadyNS"`
	TotalShuffleNS int64        `json:"totalShuffleNS"`
	TotalReduceNS  int64        `json:"totalReduceNS"`
	Windows        []windowJSON `json:"windows"`
}

type panelJSON struct {
	Overlap float64      `json:"overlap"`
	Series  []seriesJSON `json:"series"`
}

type figureJSON struct {
	Name   string      `json:"name"`
	Query  string      `json:"query"`
	Panels []panelJSON `json:"panels"`
}

type configJSON struct {
	Workers          int   `json:"workers"`
	MapSlots         int   `json:"mapSlots"`
	ReduceSlots      int   `json:"reduceSlots"`
	Reducers         int   `json:"reducers"`
	Windows          int   `json:"windows"`
	WindowDurNS      int64 `json:"windowDurNS"`
	RecordsPerWindow int   `json:"recordsPerWindow"`
	BlockSize        int64 `json:"blockSize"`
	Seed             int64 `json:"seed"`
}

// metricsJSON aggregates the run's exposition across every series label:
// the cache economy and the data-movement totals in one glance.
type metricsJSON struct {
	CacheHits     float64 `json:"cacheHits"`
	CacheMisses   float64 `json:"cacheMisses"`
	CacheLost     float64 `json:"cacheLost"`
	CacheHitRatio float64 `json:"cacheHitRatio"`
	ShuffleBytes  float64 `json:"shuffleBytes"`
	MapTasks      float64 `json:"mapTasks"`
	ReduceTasks   float64 `json:"reduceTasks"`
	DFSReadBytes  float64 `json:"dfsReadBytes"`
	DFSWriteBytes float64 `json:"dfsWriteBytes"`
}

// queryHealthJSON is one query's SLO aggregate over the whole run —
// the health monitor's end-of-run snapshot, so changes in deadline
// behaviour and forecast quality show in the record, not just raw
// timings.
type queryHealthJSON struct {
	Query            string `json:"query"`
	Status           string `json:"status"`
	Recurrences      int    `json:"recurrences"`
	DeadlineMisses   int    `json:"deadlineMisses"`
	MaxMissStreak    int    `json:"maxMissStreak"`
	Anomalies        int    `json:"anomalies"`
	AdaptivityMisses int    `json:"adaptivityMisses"`
	MinHeadroomNS    int64  `json:"minHeadroomNS"`
	LastLagUnits     int64  `json:"lastLagUnits"`
}

// profileQueryJSON is one query's critical-path aggregate.
type profileQueryJSON struct {
	Query       string `json:"query"`
	Recurrences int    `json:"recurrences"`
	CritPathNS  int64  `json:"critPathNS"`
}

// profileJSON folds the critical-path profiler into the summary: total
// critical-path length across every recurrence the run executed, and
// per query. The time cache reuse saved is the costs block's.
type profileJSON struct {
	CritPathNS int64              `json:"critPathNS"`
	Queries    []profileQueryJSON `json:"queries,omitempty"`
}

// costQueryJSON is one query's cost-ledger aggregate over the whole
// run: virtual compute per the account ledger, attributed IO bytes,
// cache occupancy, and the recompute time its cache hits saved.
type costQueryJSON struct {
	Query             string  `json:"query"`
	Tenant            string  `json:"tenant,omitempty"`
	TotalComputeNS    int64   `json:"totalComputeNS"`
	SlotComputeNS     int64   `json:"slotComputeNS"`
	IOBytes           int64   `json:"ioBytes"`
	CacheByteSeconds  float64 `json:"cacheByteSeconds"`
	PeakResidentBytes int64   `json:"peakResidentBytes"`
	SavedNS           int64   `json:"savedNS"`
	CacheROI          float64 `json:"cacheROI"`
}

// costsJSON folds the resource-accounting ledger into the summary:
// per-query cost rows, per-tenant rollups, and the conservation check
// (attributed slot compute must not exceed the clusters' busy time,
// and every cache residency must be closed exactly once or still
// open). ConservationOK=false is also printed as a warning on stderr.
type costsJSON struct {
	ConservationOK bool                  `json:"conservationOK"`
	ClusterBusyNS  int64                 `json:"clusterBusyNS"`
	SlotComputeNS  int64                 `json:"slotComputeNS"`
	Queries        []costQueryJSON       `json:"queries,omitempty"`
	Tenants        []account.TenantCosts `json:"tenants,omitempty"`
}

// lineageJSON folds the provenance store's end-of-run totals into the
// summary: how many derivation nodes and input edges the run recorded,
// how many distinct plan fingerprints it saw, and how many cache
// entries had to be rebuilt after a lost cache (Figure 9 drops caches
// on purpose, so -fig all records rebuilds).
type lineageJSON struct {
	Nodes                int `json:"nodes"`
	Edges                int `json:"edges"`
	Batches              int `json:"batches"`
	DistinctFingerprints int `json:"distinctFingerprints"`
	Rebuilds             int `json:"rebuilds"`
	Evicted              int `json:"evicted"`
}

// reuseQueryJSON is one query's share of the -reuse comparison: map
// tasks with the cross-query reuse index detached and attached, the
// reuse-on pane accounting, the ledger's cross-query attribution, and
// whether the two variants' window outputs were byte-identical.
type reuseQueryJSON struct {
	Query          string `json:"query"`
	MapTasksOff    int    `json:"mapTasksOff"`
	MapTasksOn     int    `json:"mapTasksOn"`
	NewPanesOn     int    `json:"newPanesOn"`
	ReusedPanesOn  int    `json:"reusedPanesOn"`
	CrossQueryHits int    `json:"crossQueryHits"`
	CrossSavedNS   int64  `json:"crossSavedNS"`
	OutputsEqual   bool   `json:"outputsEqual"`
}

// reuseJSON folds the -reuse cross-query reuse comparison into the
// summary: the shared-stream workload's map-task totals with the index
// off and on, the index counters, and per-query rows. Every field is a
// virtual quantity metered at serial commit points, so the block is
// byte-identical across -workers settings.
type reuseJSON struct {
	TotalMapTasksOff int              `json:"totalMapTasksOff"`
	TotalMapTasksOn  int              `json:"totalMapTasksOn"`
	ExactHits        int              `json:"exactHits"`
	SubsumHits       int              `json:"subsumHits"`
	Published        int              `json:"published"`
	Entries          int              `json:"entries"`
	Queries          []reuseQueryJSON `json:"queries"`
}

// reuseSummary folds an off/on pair of reuse runs into the summary
// schema; nil in, nil out.
func reuseSummary(off, on *experiments.ReuseReport) *reuseJSON {
	if off == nil || on == nil {
		return nil
	}
	rj := &reuseJSON{
		TotalMapTasksOff: off.TotalMapTasks(),
		TotalMapTasksOn:  on.TotalMapTasks(),
	}
	if on.Index != nil {
		rj.ExactHits = on.Index.ExactHits
		rj.SubsumHits = on.Index.SubsumHits
		rj.Published = on.Index.Published
		rj.Entries = on.Index.Entries
	}
	for i := range on.Queries {
		o, n := off.Queries[i], on.Queries[i]
		rj.Queries = append(rj.Queries, reuseQueryJSON{
			Query:          n.Query,
			MapTasksOff:    o.MapTasks,
			MapTasksOn:     n.MapTasks,
			NewPanesOn:     n.NewPanes,
			ReusedPanesOn:  n.ReusedPanes,
			CrossQueryHits: n.CrossQueryHits,
			CrossSavedNS:   n.CrossSavedNS,
			OutputsEqual:   o.OutputDigest == n.OutputDigest,
		})
	}
	return rj
}

type summaryJSON struct {
	Tool            string            `json:"tool"`
	Config          configJSON        `json:"config"`
	Figures         []figureJSON      `json:"figures"`
	HeadlineSpeedup *float64          `json:"headlineSpeedup,omitempty"`
	Metrics         *metricsJSON      `json:"metrics,omitempty"`
	Health          []queryHealthJSON `json:"health,omitempty"`
	Profile         *profileJSON      `json:"profile,omitempty"`
	// Chaos records a -chaos verification run: the seeded fault
	// schedule and the oracle's per-regime verdicts (full detail with
	// -chaos-report).
	Chaos   *chaosJSON   `json:"chaos,omitempty"`
	Costs   *costsJSON   `json:"costs,omitempty"`
	Lineage *lineageJSON `json:"lineage,omitempty"`
	// Reuse is the -reuse cross-query reuse block; absent unless the
	// flag was set.
	Reuse *reuseJSON `json:"reuse,omitempty"`
}

func seriesSummary(s experiments.Series) seriesJSON {
	out := seriesJSON{
		System:         s.System,
		MakespanNS:     int64(s.TotalResponse()),
		MeanSteadyNS:   int64(s.MeanResponse(2)),
		TotalShuffleNS: int64(s.TotalShuffle()),
		TotalReduceNS:  int64(s.TotalReduce()),
	}
	for _, w := range s.Windows {
		out.Windows = append(out.Windows, windowJSON{
			Window:     w.Window,
			ResponseNS: int64(w.Response),
			ShuffleNS:  int64(w.Shuffle),
			ReduceNS:   int64(w.Reduce),
		})
	}
	return out
}

func buildSummary(cfg experiments.Config, figs []*experiments.FigResult, headline *float64, x *obs.Exposition) summaryJSON {
	sum := summaryJSON{
		Tool: "redoop-bench",
		Config: configJSON{
			Workers:          cfg.Workers,
			MapSlots:         cfg.MapSlots,
			ReduceSlots:      cfg.ReduceSlots,
			Reducers:         cfg.Reducers,
			Windows:          cfg.Windows,
			WindowDurNS:      int64(cfg.WindowDur),
			RecordsPerWindow: cfg.RecordsPerWindow,
			BlockSize:        cfg.BlockSize,
			Seed:             cfg.Seed,
		},
		Figures:         []figureJSON{},
		HeadlineSpeedup: headline,
	}
	for _, f := range figs {
		fj := figureJSON{Name: f.Name, Query: f.Query}
		for _, p := range f.Panels {
			pj := panelJSON{Overlap: p.Overlap}
			for _, s := range p.Series {
				pj.Series = append(pj.Series, seriesSummary(s))
			}
			fj.Panels = append(fj.Panels, pj)
		}
		sum.Figures = append(sum.Figures, fj)
	}
	if x != nil {
		m := metricsJSON{
			CacheHits:     x.Sum("redoop_cache_lookups_total", obs.L("result", "hit")),
			CacheMisses:   x.Sum("redoop_cache_lookups_total", obs.L("result", "miss")),
			CacheLost:     x.Sum("redoop_cache_lookups_total", obs.L("result", "lost")),
			ShuffleBytes:  x.Sum("redoop_shuffle_bytes_total"),
			MapTasks:      x.Sum("redoop_map_tasks_total"),
			ReduceTasks:   x.Sum("redoop_reduce_tasks_total"),
			DFSReadBytes:  x.Sum("redoop_dfs_read_bytes_total"),
			DFSWriteBytes: x.Sum("redoop_dfs_write_bytes_total"),
		}
		if total := m.CacheHits + m.CacheMisses + m.CacheLost; total > 0 {
			m.CacheHitRatio = m.CacheHits / total
		}
		sum.Metrics = &m
	}
	return sum
}

// profileSummary reconstructs the run's task DAG from the observer's
// span stream and folds the profiler aggregates into the
// summary schema. Returns nil when no recurrence spans were recorded
// (e.g. an observer-less run).
func profileSummary(ob *obs.Observer) *profileJSON {
	if ob == nil {
		return nil
	}
	p := profile.Analyze(ob.Events())
	if len(p.Recurrences) == 0 {
		return nil
	}
	pj := &profileJSON{CritPathNS: int64(p.CritPathTotal())}
	names := make([]string, 0, len(p.Queries))
	for q := range p.Queries {
		names = append(names, q)
	}
	sort.Strings(names)
	for _, q := range names {
		qp := p.Queries[q]
		pj.Queries = append(pj.Queries, profileQueryJSON{
			Query:       q,
			Recurrences: len(qp.Recurrences),
			CritPathNS:  int64(qp.CritPath),
		})
	}
	return pj
}

// costsSummary folds the account ledger's end-of-run snapshot into the
// summary schema; nil ledger (or one that metered nothing) in, nil
// out. busyNS is the summed Node.Load() across every engine the run
// built — the conservation denominator.
func costsSummary(acct *account.Ledger, busyNS int64) *costsJSON {
	if acct == nil {
		return nil
	}
	snaps := acct.Snapshot()
	if len(snaps) == 0 {
		return nil
	}
	cj := &costsJSON{
		ConservationOK: acct.CheckConservation(busyNS) == nil,
		ClusterBusyNS:  busyNS,
		SlotComputeNS:  acct.SlotComputeNS(),
	}
	// Tenant rollups only when something is actually tenanted — an
	// all-anonymous run would just duplicate the query totals.
	for _, qc := range snaps {
		if qc.Tenant != "" {
			cj.Tenants = account.RollupTenants(snaps)
			break
		}
	}
	for _, qc := range snaps {
		var ioBytes int64
		for _, b := range qc.IOBytes {
			ioBytes += b
		}
		cj.Queries = append(cj.Queries, costQueryJSON{
			Query:             qc.Query,
			Tenant:            qc.Tenant,
			TotalComputeNS:    qc.TotalComputeNS,
			SlotComputeNS:     qc.SlotComputeNS,
			IOBytes:           ioBytes,
			CacheByteSeconds:  qc.CacheByteSeconds,
			PeakResidentBytes: qc.PeakResidentBytes,
			SavedNS:           qc.SavedNS,
			CacheROI:          qc.CacheROI,
		})
	}
	return cj
}

// lineageSummary folds the provenance store's end-of-run stats into
// the summary schema; nil store (or one that recorded nothing) in, nil
// out.
func lineageSummary(lin *lineage.Store) *lineageJSON {
	if lin == nil {
		return nil
	}
	st := lin.Stats()
	if st.Nodes == 0 && st.Batches == 0 {
		return nil
	}
	return &lineageJSON{
		Nodes:                st.Nodes,
		Edges:                st.Edges,
		Batches:              st.Batches,
		DistinctFingerprints: st.DistinctFingerprints,
		Rebuilds:             st.Rebuilds,
		Evicted:              st.Evicted,
	}
}

// healthSummary folds the monitor's end-of-run snapshot into the
// summary schema.
func healthSummary(mon *health.Monitor) []queryHealthJSON {
	if mon == nil {
		return nil
	}
	var out []queryHealthJSON
	for _, st := range mon.Snapshot() {
		out = append(out, queryHealthJSON{
			Query:            st.Query,
			Status:           string(st.Status),
			Recurrences:      st.Recurrences,
			DeadlineMisses:   st.DeadlineMisses,
			MaxMissStreak:    st.MaxMissStreak,
			Anomalies:        st.Anomalies,
			AdaptivityMisses: st.AdaptivityMisses,
			MinHeadroomNS:    st.MinHeadroomNS,
			LastLagUnits:     st.WindowLagUnits,
		})
	}
	return out
}

func writeSummary(w io.Writer, sum summaryJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}
