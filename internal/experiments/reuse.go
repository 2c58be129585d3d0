package experiments

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"redoop/internal/account"
	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
)

// This file measures cross-query pane reuse (internal/reuse): the two
// Figure-6 aggregation workloads plus a coarser tumbling roll-up share
// one WCC stream through the SourceHub, and the reuse index lets the
// later queries satisfy their pane builds from the first query's
// reduce-output caches — an exact copy for the identical-geometry
// sibling, a Merge composition for the tumbling consumer whose pane
// unit is a multiple of the producer's.

// ReuseQueryStats is one query's share of a shared-stream reuse run.
type ReuseQueryStats struct {
	Query string `json:"query"`
	// Windows is how many recurrences the query completed.
	Windows int `json:"windows"`
	// MapTasks counts the map tasks the query ran across all windows —
	// the quantity cross-query reuse drives to zero for queries that
	// can consume a sibling's panes.
	MapTasks int `json:"mapTasks"`
	// NewPanes/ReusedPanes aggregate the engine's per-window pane
	// accounting (a cross-query hit counts as reused, not new).
	NewPanes    int `json:"newPanes"`
	ReusedPanes int `json:"reusedPanes"`
	// CrossQueryHits / CrossSavedNS are the ledger's cross-query reuse
	// attribution for the query (0 when reuse is disabled).
	CrossQueryHits int   `json:"crossQueryHits"`
	CrossSavedNS   int64 `json:"crossSavedNS"`
	// OutputDigest is a SHA-256 over the query's canonicalized window
	// outputs, in window order — the byte-equality anchor between
	// reuse-on and reuse-off runs.
	OutputDigest string `json:"outputDigest"`
	// Timings carries the per-window measurements for figure series.
	Timings []WindowTiming `json:"-"`
}

// ReuseReport summarizes one shared-stream run of the reuse workload.
type ReuseReport struct {
	// Enabled records whether the reuse index was attached.
	Enabled bool `json:"enabled"`
	// Queries reports per-query stats in engine-creation order: the
	// producer first, its exact-geometry sibling second, the coarser
	// tumbling consumer third.
	Queries []ReuseQueryStats `json:"queries"`
	// Index is the reuse index's counters at end of run (nil when
	// disabled).
	Index *reuse.Stats `json:"index,omitempty"`
	// Snapshot is the index's surviving entries in canonical order,
	// for determinism checks across -workers settings.
	Snapshot []reuse.Entry `json:"-"`
}

// TotalMapTasks sums map tasks across the run's queries.
func (r *ReuseReport) TotalMapTasks() int {
	t := 0
	for _, q := range r.Queries {
		t += q.MapTasks
	}
	return t
}

// reuseWorkloadQueries builds the shared-stream reuse trio: two
// identical-geometry Figure-6 aggregations (exact reuse) and a
// tumbling roll-up whose pane unit is twice theirs (subsumption).
// All three opt into the shared source via CacheKey.
func reuseWorkloadQueries(cfg Config, slide simtime.Duration) []*core.Query {
	mk := func(name string, win, sl simtime.Duration) *core.Query {
		q := queries.WCCAggregation(name, win, sl, cfg.Reducers)
		q.Sources[0].CacheKey = "wcc"
		return q
	}
	return []*core.Query{
		mk("fig6-a", cfg.WindowDur, slide),
		mk("fig6-b", cfg.WindowDur, slide),
		mk("rollup-2x", 2*slide, 2*slide),
	}
}

// RunCrossQueryReuse executes the shared-stream reuse workload once,
// with or without the reuse index attached, and reports per-query map
// task counts, pane accounting, savings attribution and output
// digests. With cfg.OracleCheck set, every recurrence of every query
// is additionally verified against the differential oracle; cfg.Chaos
// composes with the shared stream — node crashes, cache drops and pane
// corruptions land between a window's batches and its trigger, exactly
// as in the single-engine soak.
func RunCrossQueryReuse(cfg Config, enabled bool) (*ReuseReport, error) {
	return cfg.withDefaults().crossQueryReuse(enabled, nil)
}

// crossQueryReuse is RunCrossQueryReuse with an optional scripted
// fault hook, run before each recurrence's trigger.
func (c Config) crossQueryReuse(enabled bool, before func(r int, mr *mapreduce.Engine)) (*ReuseReport, error) {
	const overlap = 0.75
	slide := c.SlideFor(overlap)
	mr := c.NewRuntime(3)
	ctrl := core.NewController()
	hub := core.NewSourceHub(mr.DFS, mr.DFS.BlockSize())
	hub.SetObserver(c.Obs)
	qs := reuseWorkloadQueries(c, slide)
	if err := hub.Share("wcc", "wcc", qs[0].Sources[0].Spec, 0); err != nil {
		return nil, err
	}

	var idx *reuse.Index
	if enabled {
		idx = reuse.NewIndex(0)
	}
	acct := c.Account
	if acct == nil {
		acct = account.New()
	}
	lin := c.provenance()

	report := &ReuseReport{Enabled: enabled, Queries: make([]ReuseQueryStats, len(qs))}
	lanes := make([]lane, len(qs))
	digests := make([]digestWriter, len(qs))
	for i, q := range qs {
		eng, err := core.NewEngine(core.Config{
			MR: mr, Query: q, Controller: ctrl, Hub: hub,
			Reuse: idx, Account: acct, Lineage: lin, Health: c.Health,
		})
		if err != nil {
			return nil, err
		}
		c.notifyEngine(eng)
		lanes[i] = redoopLane(q.Name, eng)
		report.Queries[i].Query = q.Name
	}

	// One hub feed (the Q1 spec's WCC stream; its query is not run)
	// that every lane's oracle observes. Lane order makes fig6-a lead
	// its identical sibling on every tied window close, so the reuse
	// direction is deterministic.
	err := c.run(drive{
		mr:       mr,
		lanes:    lanes,
		windows:  c.Windows,
		sink:     func(_ int, batch []records.Record) error { return hub.Ingest("wcc", batch) },
		feed:     c.paneFeed(c.aggSpec("stream", overlap)),
		verified: true,
		before:   before,
		window: func(l int, res *core.RecurrenceResult) {
			st := &report.Queries[l]
			st.Windows++
			st.MapTasks += res.Stats.MapTasks
			st.NewPanes += res.NewPanes
			st.ReusedPanes += res.ReusedPanes
			digests[l].addWindow(res.Output)
			st.Timings = append(st.Timings, timingOf(res))
		},
	})
	if err != nil {
		return nil, err
	}
	for i := range report.Queries {
		report.Queries[i].OutputDigest = digests[i].sum()
	}
	for _, qc := range acct.Snapshot() {
		for i := range report.Queries {
			if report.Queries[i].Query == qc.Query {
				report.Queries[i].CrossQueryHits = qc.CrossQueryHits
				report.Queries[i].CrossSavedNS = qc.CrossSavedNS
			}
		}
	}
	if idx != nil {
		s := idx.Stats()
		report.Index = &s
		report.Snapshot = idx.Snapshot()
	}
	return report, nil
}

// digestWriter folds canonicalized window outputs into one SHA-256.
type digestWriter struct{ h [32]byte }

func (d *digestWriter) addWindow(out []records.Pair) {
	cp := append([]records.Pair(nil), out...)
	mapreduce.SortPairs(cp)
	payload := append(d.h[:], records.EncodePairs(cp)...)
	d.h = sha256.Sum256(payload)
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h[:]) }

// CompareCrossQueryReuse runs the shared-stream workload twice, reuse
// index detached, then attached, and checks the pair: every query's
// window outputs must be byte-identical between the runs (canonical
// order), and with reuse on the identical-geometry sibling must run no
// map task of its own. err is a run's failure; verdict, returned with
// both reports, is the first check that failed, nil when both hold.
func CompareCrossQueryReuse(cfg Config) (off, on *ReuseReport, verdict, err error) {
	if off, err = RunCrossQueryReuse(cfg, false); err != nil {
		return nil, nil, nil, fmt.Errorf("reuse off: %w", err)
	}
	if on, err = RunCrossQueryReuse(cfg, true); err != nil {
		return nil, nil, nil, fmt.Errorf("reuse on: %w", err)
	}
	for i := range off.Queries {
		if off.Queries[i].OutputDigest != on.Queries[i].OutputDigest {
			return off, on, fmt.Errorf("reuse: query %s window outputs diverged between reuse off and on", off.Queries[i].Query), nil
		}
	}
	if n := on.Queries[1].MapTasks; n != 0 {
		return off, on, fmt.Errorf("reuse: sibling %s ran %d map tasks with reuse enabled; want 0 (every shared pane computed once)",
			on.Queries[1].Query, n), nil
	}
	return off, on, nil, nil
}

// CrossQueryReuse is the figure-style experiment: the panel contrasts
// each query's response times with the reuse index off and on. It fails
// when CompareCrossQueryReuse's verdict does.
func CrossQueryReuse(cfg Config) (*FigResult, error) {
	off, on, verdict, err := CompareCrossQueryReuse(cfg)
	if err = cmp.Or(err, verdict); err != nil {
		return nil, err
	}
	res := &FigResult{
		Name:  "Cross-query pane reuse",
		Query: "two identical Figure-6 aggregations + a 2x tumbling roll-up over one shared WCC stream",
	}
	mkSeries := func(r *ReuseReport, label string) []Series {
		out := make([]Series, len(r.Queries))
		for i, qs := range r.Queries {
			out[i] = Series{System: fmt.Sprintf("%s %s", qs.Query, label), Windows: qs.Timings}
		}
		return out
	}
	res.Panels = append(res.Panels, Panel{Series: append(mkSeries(off, "reuse-off"), mkSeries(on, "reuse-on")...)})
	return res, nil
}
