package obs

import (
	"slices"

	"redoop/internal/obs/eventlog"
	"redoop/internal/simtime"
)

// Attach adds state a component keeps to every later exposition: add
// is called at export, after the record is folded and after the state
// attached before it, so of two components setting one gauge the later
// attached wins. add should hold only the counts it reads, not the
// component, so the tracer keeps nothing else of it alive. Nil-safe.
func (t *Tracer) Attach(add func(*Exposition)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.state = append(t.state, add)
	t.mu.Unlock()
}

// Exposition returns the run's metrics: the whole record folded — every
// closed segment, kept when retention drops the segment, and the open
// one, which holds what no recurrence root has closed yet (the baseline
// driver records none) — then the attached state added. Nil on a nil
// tracer.
func (t *Tracer) Exposition() *Exposition {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	x := t.folded.clone()
	t.fold(x, &t.open)
	state := slices.Clone(t.state)
	t.mu.Unlock()
	for _, add := range state {
		add(x)
	}
	return x
}

// fold adds seg to x in record order: its spans, then its decisions. No
// family is counted from both, so each histogram takes its samples one
// at a time in the order they were recorded, which fixes its sum to the
// last digit. The two switches below are the exposition's family →
// fact mapping; the families they do not name are state read at export
// (Tracer.Attach): dfs.DFS's file counts and health.Monitor's query
// statuses.
func (t *Tracer) fold(x *Exposition, seg *segment) {
	for i := range seg.spans {
		foldSpan(x, &seg.spans[i])
	}
	for i := range seg.decisions {
		t.foldDecision(x, seg, &seg.decisions[i])
	}
}

// foldSpan counts a span's task: attempts, what a settled map task read
// and spilled, what a winning reduce shuffled and wrote, what a cache
// task read, and what a recurrence's tick and status matrix did.
func foldSpan(x *Exposition, s *TaskSpan) {
	switch s.Kind {
	case SpanMap, SpanBackup:
		switch {
		case s.Kind == SpanBackup:
			x.Add("redoop_map_attempts_total", 1, L("result", "speculative"))
		case s.Failed:
			x.Add("redoop_map_attempts_total", 1, L("result", "failed"))
		default:
			x.Add("redoop_map_attempts_total", 1, L("result", "ok"))
			x.Observe("redoop_map_task_seconds", s.End.Sub(s.Start).Seconds())
		}
		if s.Settles { // a split is never empty: it was read on the node or not
			locality, read := L("locality", "remote"), s.RemoteBytes
			if s.LocalBytes > 0 {
				locality, read = L("locality", "local"), s.LocalBytes
			}
			x.Add("redoop_map_tasks_total", 1)
			x.Add("redoop_dfs_block_reads_total", 1, locality)
			x.Add("redoop_map_input_bytes_total", float64(read), locality)
			x.Add("redoop_spill_bytes_total", float64(s.OutBytes))
		}
	case SpanReduce:
		if s.Failed {
			x.Add("redoop_reduce_attempts_total", 1, L("result", "failed"))
			return
		}
		x.Add("redoop_reduce_attempts_total", 1, L("result", "ok"))
		x.Add("redoop_shuffle_bytes_total", float64(s.LocalBytes), L("locality", "local"))
		x.Add("redoop_shuffle_bytes_total", float64(s.RemoteBytes), L("locality", "remote"))
		x.Observe("redoop_shuffle_seconds", s.Shuffle.Seconds())
		x.Observe("redoop_reduce_task_seconds", s.End.Sub(s.Start).Seconds())
		x.Add("redoop_reduce_tasks_total", 1)
		x.Add("redoop_output_bytes_total", float64(s.OutBytes))
	case SpanCombine, SpanRebuild, SpanFinalize, SpanJoin, SpanReuse, SpanReuseMerge:
		if s.LocalCaches > 0 {
			x.Add("redoop_cache_read_bytes_total", float64(s.LocalBytes), L("locality", "local"))
		}
		if int64(s.LocalCaches) < s.Count {
			x.Add("redoop_cache_read_bytes_total", float64(s.RemoteBytes), L("locality", "remote"))
		}
	case SpanRecurrence:
		x.Add("redoop_cache_purges_total", float64(s.Purged))
		if s.Updates > 0 {
			x.Add("redoop_statusmatrix_updates_total", float64(s.Updates), L("query", s.Job))
		}
		if s.Retired > 0 {
			x.Add("redoop_statusmatrix_retired_panes_total", float64(s.Retired), L("query", s.Job))
		}
		if s.Rehomed > 0 {
			x.Add("redoop_home_reassignments_total", float64(s.Rehomed))
		}
	}
}

// foldDecision counts a decision: cache lookups, registrations,
// rollbacks, purge notices, evictions and reuse hits; placements and
// their queue wait; recurrences, their panes and forecast error; and
// re-plans.
func (t *Tracer) foldDecision(x *Exposition, seg *segment, d *decision) {
	query := L("query", t.names[d.query])
	switch d.kind {
	case reuseDecision:
		x.Add("redoop_reuse_hits_total", 1, query, L("kind", d.data.(string)))
	case cacheDecision:
		typ := L("type", t.names[d.name])
		switch eventlog.Type(t.names[d.typ]) {
		case eventlog.CacheRegister:
			x.Add("redoop_cache_registrations_total", 1, typ)
			x.Add("redoop_cache_registered_bytes_total", float64(d.bytes), typ)
		case eventlog.CacheHit:
			x.Add("redoop_cache_lookups_total", 1, L("result", "hit"), typ)
		case eventlog.CacheMiss:
			x.Add("redoop_cache_lookups_total", 1, L("result", "miss"), typ)
		case eventlog.CacheLost:
			x.Add("redoop_cache_lookups_total", 1, L("result", "lost"), typ)
		case eventlog.CacheRollback:
			x.Add("redoop_cache_rollbacks_total", 1, typ)
		case eventlog.CachePurge:
			x.Add("redoop_cache_purge_notices_total", 1, typ)
		case eventlog.CacheEvict:
			x.Add("redoop_cache_evictions_total", 1)
		}
	case placementDecision:
		x.Add("redoop_placements_total", 1, L("outcome", t.names[d.name]))
		p := seg.placements[d.bytes]
		for _, c := range seg.cands[p.lo:p.hi] {
			if c.Node == int(d.node) { // the queue wait is the chosen node's load
				x.Observe("redoop_placement_queue_seconds", simtime.Duration(c.LoadNS).Seconds())
			}
		}
	case boxedDecision:
		switch data := d.data.(type) {
		case eventlog.RecurrenceFinishData:
			mode := "reactive"
			if data.Proactive {
				mode = "proactive"
			}
			x.Add("redoop_recurrences_total", 1, query, L("mode", mode))
			x.Observe("redoop_recurrence_seconds", simtime.Duration(data.ResponseNS).Seconds(), query)
			x.Add("redoop_panes_total", float64(data.NewPanes), query, L("kind", "new"))
			x.Add("redoop_panes_total", float64(data.ReusedPanes), query, L("kind", "reused"))
			x.Add("redoop_pane_pairs_total", float64(data.NewPairs), query, L("kind", "new"))
			x.Add("redoop_pane_pairs_total", float64(data.ReusedPairs), query, L("kind", "reused"))
			x.Add("redoop_cache_recoveries_total", float64(data.CacheRecoveries), query)
			if data.ForecastNS != -1 { // -1: the profiler had made no forecast yet
				errSec := (simtime.Duration(data.ForecastNS) - simtime.Duration(data.ResponseNS)).Seconds()
				if errSec < 0 {
					errSec = -errSec
				}
				x.Observe("redoop_forecast_error_seconds", errSec, query)
			}
		case eventlog.ReplanData:
			x.Add("redoop_replans_total", 1, query)
		}
	}
}
