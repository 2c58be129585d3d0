// Package explain turns the run's decision events into per-recurrence
// decision reports: why each cache-fed task landed on its node (the
// full Equation 4 cost breakdown per candidate), which cached panes
// were reused and which recomputed, and how the Holt forecast that
// drives adaptive re-planning compared with reality.
//
// The report is derived purely from eventlog events, so it can be
// built from a run (the tracer's Decisions, which cover the same
// recurrences as its spans) or in tests from a synthetic stream.
package explain

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"redoop/internal/obs/eventlog"
	"redoop/internal/simtime"
)

// Placement is one Equation 4 decision with its audit trail.
type Placement struct {
	At         int64
	Chosen     int
	Outcome    string
	Caches     int
	Candidates []eventlog.PlacementCandidate
}

// Argmin returns the node a correct Equation 4 evaluation would choose
// from this placement's candidate costs: the minimum TotalNS, ties
// broken toward the earliest-listed (lowest-ID) node — the scheduler's
// own tie-break. It returns -1 when there are no candidates.
func (p Placement) Argmin() int {
	best := -1
	var bestCost int64
	for _, c := range p.Candidates {
		if best == -1 || c.TotalNS < bestCost {
			best, bestCost = c.Node, c.TotalNS
		}
	}
	return best
}

// Consistent reports whether the recorded choice matches the argmin of
// the recorded per-candidate costs — the self-check that makes the
// audit trail trustworthy.
func (p Placement) Consistent() bool { return p.Chosen == p.Argmin() }

// CacheEvent is one cache lookup or registration, with the panes the
// cache covers parsed out of its PID.
type CacheEvent struct {
	eventlog.CacheData
	At    int64
	Panes []int64
}

// Recurrence is one recurrence's assembled story.
type Recurrence struct {
	Index              int
	WindowLo, WindowHi int64
	TriggerAt          int64
	ResponseNS         int64
	// ForecastNS is the Holt forecast made for this recurrence at the
	// end of the previous one; -1 before the profiler warms up.
	ForecastNS            int64
	NewPanes, ReusedPanes int
	NewPairs, ReusedPairs int
	CacheRecoveries       int
	Proactive             bool
	SubPanes              int
	Finished              bool
	// Anomaly marks a forecast-residual outlier flagged by the health
	// monitor; AdaptivityMiss means it fired without the engine
	// re-planning. HealthTo records a status transition landing here.
	Anomaly                        bool
	AdaptivityMiss                 bool
	HealthTo                       string
	Placements                     []Placement
	Hits, Misses, Lost, Registered []CacheEvent
	Replans                        []eventlog.ReplanData
	RetiredPanes                   map[int][]int64
}

// Report is the assembled explainability report of one query.
type Report struct {
	Query       string
	Recurrences []Recurrence
	// Run-wide counts: purge notices, ready-state rollbacks, node
	// failures and retried task attempts.
	Purges       int
	Rollbacks    int
	NodeFailures []int
	TaskRetries  int
}

// Build assembles a report from an event slice, keeping only events of
// the given query (empty = all). Events must be in record order, as
// the tracer returns them.
func Build(events []eventlog.Event, query string) *Report {
	rep := &Report{Query: query}
	recs := make(map[int]*Recurrence)
	order := []int{}
	at := func(idx int) *Recurrence {
		r, ok := recs[idx]
		if !ok {
			r = &Recurrence{Index: idx, ForecastNS: -1, RetiredPanes: make(map[int][]int64)}
			recs[idx] = r
			order = append(order, idx)
		}
		return r
	}
	// The recurrence in flight, for events (pane retire) that are
	// stamped with the query but not a recurrence index.
	current := -1
	for _, e := range events {
		if query != "" && e.Query != "" && e.Query != query {
			continue
		}
		switch e.Type {
		case eventlog.RecurrenceStart:
			d, ok := e.Data.(eventlog.RecurrenceStartData)
			if !ok {
				continue
			}
			r := at(d.Recurrence)
			r.WindowLo, r.WindowHi = d.WindowLo, d.WindowHi
			r.TriggerAt = int64(e.At)
			current = d.Recurrence
		case eventlog.RecurrenceFinish:
			d, ok := e.Data.(eventlog.RecurrenceFinishData)
			if !ok {
				continue
			}
			r := at(d.Recurrence)
			r.ResponseNS = d.ResponseNS
			r.ForecastNS = d.ForecastNS
			r.NewPanes, r.ReusedPanes = d.NewPanes, d.ReusedPanes
			r.NewPairs, r.ReusedPairs = d.NewPairs, d.ReusedPairs
			r.CacheRecoveries = d.CacheRecoveries
			r.Proactive, r.SubPanes = d.Proactive, d.SubPanes
			r.Finished = true
		case eventlog.Placement:
			d, ok := e.Data.(eventlog.PlacementData)
			if !ok {
				continue
			}
			r := at(d.Recurrence)
			r.Placements = append(r.Placements, Placement{
				At: int64(e.At), Chosen: d.Chosen, Outcome: d.Outcome,
				Caches: d.Caches, Candidates: d.Candidates,
			})
		case eventlog.CacheHit, eventlog.CacheMiss, eventlog.CacheLost, eventlog.CacheRegister:
			d, ok := e.Data.(eventlog.CacheData)
			if !ok {
				continue
			}
			ce := CacheEvent{CacheData: d, At: int64(e.At), Panes: PanesOf(d.PID)}
			if d.Recurrence < 0 {
				continue
			}
			r := at(d.Recurrence)
			switch e.Type {
			case eventlog.CacheHit:
				r.Hits = append(r.Hits, ce)
			case eventlog.CacheMiss:
				r.Misses = append(r.Misses, ce)
			case eventlog.CacheLost:
				r.Lost = append(r.Lost, ce)
			case eventlog.CacheRegister:
				r.Registered = append(r.Registered, ce)
			}
		case eventlog.CachePurge:
			rep.Purges++
		case eventlog.CacheRollback:
			rep.Rollbacks++
		case eventlog.Replan:
			d, ok := e.Data.(eventlog.ReplanData)
			if !ok {
				continue
			}
			at(d.Recurrence).Replans = append(at(d.Recurrence).Replans, d)
		case eventlog.PaneRetire:
			d, ok := e.Data.(eventlog.PaneRetireData)
			if !ok {
				continue
			}
			if current >= 0 {
				r := at(current)
				r.RetiredPanes[d.Source] = append(r.RetiredPanes[d.Source], d.Panes...)
			}
		case eventlog.HealthAnomaly:
			if d, ok := e.Data.(eventlog.HealthAnomalyData); ok {
				at(d.Recurrence).Anomaly = true
			}
		case eventlog.AdaptivityMiss:
			if d, ok := e.Data.(eventlog.AdaptivityMissData); ok {
				at(d.Recurrence).AdaptivityMiss = true
			}
		case eventlog.HealthStatus:
			if d, ok := e.Data.(eventlog.HealthStatusData); ok {
				at(d.Recurrence).HealthTo = d.To
			}
		case eventlog.Fault:
			if d, ok := e.Data.(eventlog.FaultData); ok && d.Kind == eventlog.FaultNodeCrash {
				rep.NodeFailures = append(rep.NodeFailures, d.Node)
			}
		case eventlog.TaskRetry:
			rep.TaskRetries++
		}
	}
	for _, idx := range order {
		rep.Recurrences = append(rep.Recurrences, *recs[idx])
	}
	return rep
}

// PanesOf parses the pane ids out of a cache PID. The PID grammar
// (core.Query) embeds panes in one path segment: "P3" (single pane,
// reduce-input or per-pane output) or "P3_5" (a join tuple's pane
// pair). Returns nil when no pane segment is present.
func PanesOf(pid string) []int64 {
	for _, seg := range strings.Split(pid, "/") {
		if len(seg) < 2 || seg[0] != 'P' {
			continue
		}
		var out []int64
		for _, part := range strings.Split(seg[1:], "_") {
			n, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				out = nil
				break
			}
			out = append(out, n)
		}
		if out != nil {
			return out
		}
	}
	return nil
}

// maxPlacementsShown caps the per-recurrence placement audit in the
// rendered report; the full list stays available in the Report struct.
const maxPlacementsShown = 4

// Write renders the report as a human-readable text document.
func (rep *Report) Write(w io.Writer) error {
	name := rep.Query
	if name == "" {
		name = "(all queries)"
	}
	fmt.Fprintf(w, "explain report — query %s, %d recurrences\n", name, len(rep.Recurrences))
	if len(rep.Recurrences) > 0 && rep.Recurrences[0].Index > 0 {
		fmt.Fprintf(w, "recurrences 0..%d aged out of the record\n", rep.Recurrences[0].Index-1)
	}
	if len(rep.NodeFailures) > 0 {
		fmt.Fprintf(w, "node failures injected: %v\n", rep.NodeFailures)
	}
	if rep.TaskRetries > 0 {
		fmt.Fprintf(w, "task attempts retried: %d\n", rep.TaskRetries)
	}
	fmt.Fprintf(w, "cache purges: %d, rollbacks: %d\n", rep.Purges, rep.Rollbacks)

	for i := range rep.Recurrences {
		r := &rep.Recurrences[i]
		fmt.Fprintf(w, "\nrecurrence %d  window panes [%d..%d]  %s\n",
			r.Index, r.WindowLo, r.WindowHi, r.modeString())
		if r.Finished {
			fmt.Fprintf(w, "  response %s", simtime.FormatNS(r.ResponseNS))
			if r.ForecastNS >= 0 {
				fmt.Fprintf(w, "  forecast %s (error %+.1f%%)", simtime.FormatNS(r.ForecastNS), forecastErrPct(r.ForecastNS, r.ResponseNS))
			} else {
				fmt.Fprintf(w, "  forecast — (profiler warming up)")
			}
			fmt.Fprintf(w, "\n  panes new/reused %d/%d", r.NewPanes, r.ReusedPanes)
			if r.NewPairs+r.ReusedPairs > 0 {
				fmt.Fprintf(w, "  pairs new/reused %d/%d", r.NewPairs, r.ReusedPairs)
			}
			if r.CacheRecoveries > 0 {
				fmt.Fprintf(w, "  cache recoveries %d", r.CacheRecoveries)
			}
			fmt.Fprintln(w)
		} else {
			fmt.Fprintf(w, "  (unfinished — run still in flight)\n")
		}

		fmt.Fprintf(w, "  cache lookups: %d hits, %d misses, %d lost; %d caches registered\n",
			len(r.Hits), len(r.Misses), len(r.Lost), len(r.Registered))
		for _, line := range summarizeByPane("hit ", r.Hits) {
			fmt.Fprintf(w, "    %s\n", line)
		}
		for _, line := range summarizeByPane("miss", r.Misses) {
			fmt.Fprintf(w, "    %s\n", line)
		}
		for _, m := range r.Lost {
			fmt.Fprintf(w, "    LOST %-13s %-34s panes %v  node %d  %s (rollback to HDFS)\n",
				m.CacheType, m.PID, m.Panes, m.Node, fmtBytes(m.Bytes))
		}

		if n := len(r.Placements); n > 0 {
			fmt.Fprintf(w, "  placements (Equation 4): %d decisions\n", n)
			shown := r.Placements
			if len(shown) > maxPlacementsShown {
				shown = shown[:maxPlacementsShown]
			}
			for _, p := range shown {
				check := "argmin ok"
				if !p.Consistent() {
					check = fmt.Sprintf("MISMATCH: argmin says node %d", p.Argmin())
				}
				fmt.Fprintf(w, "    chose node %d (%s, %d caches) — %s\n", p.Chosen, p.Outcome, p.Caches, check)
				for _, c := range p.Candidates {
					marker := ""
					if c.Node == p.Chosen {
						marker = " <-"
					}
					fmt.Fprintf(w, "      node %d: load %s + cache %s = %s%s\n",
						c.Node, simtime.FormatNS(c.LoadNS), simtime.FormatNS(c.CacheCostNS), simtime.FormatNS(c.TotalNS), marker)
				}
			}
			if len(r.Placements) > len(shown) {
				fmt.Fprintf(w, "    ... and %d more placements\n", len(r.Placements)-len(shown))
			}
		}

		for _, rp := range r.Replans {
			fmt.Fprintf(w, "  re-plan: source %d -> %d sub-panes (proactive=%v); forecast %s vs deadline %s\n",
				rp.Source, rp.SubPanes, rp.Proactive, simtime.FormatNS(rp.ForecastNS), simtime.FormatNS(rp.DeadlineNS))
		}
		srcs := make([]int, 0, len(r.RetiredPanes))
		for src := range r.RetiredPanes {
			srcs = append(srcs, src)
		}
		slices.Sort(srcs)
		for _, src := range srcs {
			fmt.Fprintf(w, "  retired: source %d panes %v\n", src, r.RetiredPanes[src])
		}
	}

	// The forecast audit table: the §3.3 adaptation loop at a glance.
	if tbl := rep.forecastRows(); len(tbl) > 0 {
		fmt.Fprintf(w, "\nforecast vs. actual (Holt double exponential smoothing):\n")
		fmt.Fprintf(w, "  %-4s %12s %12s %9s  %s\n", "r", "forecast", "actual", "error", "markers")
		for _, row := range tbl {
			fmt.Fprintln(w, row)
		}
	}
	return nil
}

// summarizeByPane folds a recurrence's cache events into one line per
// (pane set, cache type) — the per-pane attribution view — in first-
// appearance order. A reduce-input window reuse touching 20 partitions
// becomes one line, not twenty.
func summarizeByPane(verb string, events []CacheEvent) []string {
	type agg struct {
		panes   string
		typ     string
		entries int
		bytes   int64
		nodes   map[int]bool
	}
	var order []string
	groups := make(map[string]*agg)
	for _, e := range events {
		panes := fmt.Sprint(e.Panes)
		if len(e.Panes) == 0 {
			panes = "?"
		}
		key := panes + "|" + e.CacheType
		g, ok := groups[key]
		if !ok {
			g = &agg{panes: panes, typ: e.CacheType, nodes: make(map[int]bool)}
			groups[key] = g
			order = append(order, key)
		}
		g.entries++
		if e.Bytes > 0 {
			g.bytes += e.Bytes
		}
		if e.Node >= 0 {
			g.nodes[e.Node] = true
		}
	}
	out := make([]string, 0, len(order))
	for _, key := range order {
		g := groups[key]
		line := fmt.Sprintf("%s %-13s panes %-10s %3d entries  %s", verb, g.typ, g.panes, g.entries, fmtBytes(g.bytes))
		if n := len(g.nodes); n > 0 {
			line += fmt.Sprintf("  on %d node(s)", n)
		}
		out = append(out, line)
	}
	return out
}

// modeString names a recurrence's execution mode.
func (r *Recurrence) modeString() string {
	if !r.Finished {
		return "in flight"
	}
	if r.Proactive {
		return fmt.Sprintf("proactive (sub-panes %d)", r.SubPanes)
	}
	return "reactive"
}

// forecastRows renders the forecast audit rows for recurrences with a
// warmed-up forecast.
func (rep *Report) forecastRows() []string {
	var rows []string
	for i := range rep.Recurrences {
		r := &rep.Recurrences[i]
		if !r.Finished || r.ForecastNS < 0 {
			continue
		}
		markers := ""
		if len(r.Replans) > 0 {
			parts := make([]string, 0, len(r.Replans))
			for _, rp := range r.Replans {
				parts = append(parts, fmt.Sprintf("replan->sub=%d", rp.SubPanes))
			}
			markers = strings.Join(parts, " ")
		}
		if r.Proactive {
			if markers != "" {
				markers += " "
			}
			markers += "proactive"
		}
		addMarker := func(m string) {
			if markers != "" {
				markers += " "
			}
			markers += m
		}
		if r.Anomaly {
			addMarker("anomaly")
		}
		if r.AdaptivityMiss {
			addMarker("adapt-miss")
		}
		if r.HealthTo != "" {
			addMarker("status->" + r.HealthTo)
		}
		rows = append(rows, fmt.Sprintf("  %-4d %12s %12s %+8.1f%%  %s",
			r.Index, simtime.FormatNS(r.ForecastNS), simtime.FormatNS(r.ResponseNS),
			forecastErrPct(r.ForecastNS, r.ResponseNS), markers))
	}
	return rows
}

// forecastErrPct is the signed forecast error relative to the actual.
func forecastErrPct(forecast, actual int64) float64 {
	if actual == 0 {
		return 0
	}
	return 100 * float64(forecast-actual) / float64(actual)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
