// Package experiments regenerates the paper's evaluation artifacts
// (Figures 6–9, §6) on the simulated cluster.
//
// Everything runs at a 1000×-reduced scale model of the paper's
// testbed: 64 KiB blocks instead of 64 MiB, megabyte instead of
// gigabyte windows, and a per-task overhead shrunk by the same factor,
// so task counts, wave counts and phase ratios — the quantities that
// determine the figures' shapes — are preserved while a full figure
// regenerates in seconds. Absolute numbers are therefore in
// milliseconds where the paper reports hundreds of seconds; the
// comparisons (who wins, by what factor, where crossovers fall) are
// the reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"math"
	"time"

	"redoop/internal/account"
	"redoop/internal/chaos"
	"redoop/internal/cluster"
	"redoop/internal/core"
	"redoop/internal/dfs"
	"redoop/internal/health"
	"redoop/internal/iocost"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/oracle"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/window"
	"redoop/internal/workload"
)

// Config parameterizes an experiment run. Zero fields take defaults
// from Default().
type Config struct {
	// Cluster shape (paper: 30 slaves, 6 map + 2 reduce slots each).
	Workers     int
	MapSlots    int
	ReduceSlots int
	// ExecWorkers bounds the mapreduce engine's parallel-compute pool
	// (mapreduce.Engine.Workers): 0 means GOMAXPROCS, 1 forces fully
	// serial execution. Results are byte-identical at any setting —
	// only host wall-clock changes.
	ExecWorkers int
	// BlockSize is the DFS block size of the scale model.
	BlockSize   int64
	Replication int
	// Cost is the task cost model.
	Cost iocost.Model
	// Windows is how many recurrences each series measures (paper: 10).
	Windows int
	// WindowDur is the window size; the slide per panel derives from
	// the panel's overlap factor.
	WindowDur simtime.Duration
	// RecordsPerWindow fixes the data volume of one window; the
	// per-slide batch size derives from it so total window volume is
	// constant across overlaps.
	RecordsPerWindow int
	// Reducers is the query's fixed reduce partition count.
	Reducers int
	// Seed drives all generators.
	Seed int64
	// Obs optionally instruments every runtime built by NewRuntime
	// (the span and decision record its metrics fold from, and the DFS
	// counts); nil disables observability.
	Obs *obs.Observer
	// Health optionally shares one SLO monitor across every Redoop
	// engine an experiment builds, so a whole figure's queries land in
	// one health table; nil gives each engine a private
	// monitor.
	Health *health.Monitor
	// Account optionally shares one cost ledger across every Redoop
	// engine an experiment builds, so a whole figure's queries roll up
	// into one cost report; nil disables cost accounting.
	Account *account.Ledger
	// OnEngine, when non-nil, receives every Redoop engine an
	// experiment builds, as soon as it exists, so a caller can read
	// end-of-run state off all of them.
	OnEngine func(*core.Engine)
	// Reuse optionally attaches a cross-query pane reuse index to
	// every Redoop engine an experiment builds. Single-query runs
	// publish into it but never hit (there is no sibling to reuse
	// from); the shared-stream reuse workload builds its own index.
	Reuse *reuse.Index
	// Chaos, when non-nil, replays the deterministic fault schedule
	// against every Redoop run an experiment performs: its actions
	// land between a window's batches and its trigger, its task-
	// attempt faults and straggler knobs compose with any figure-
	// scripted FaultPlan. The Hadoop baseline runs clean — chaos
	// verifies Redoop's recovery, not Hadoop's.
	Chaos *chaos.Schedule
	// Lineage optionally shares one provenance store across every
	// Redoop engine an experiment builds, so a whole figure's
	// derivations land in one derivation DAG. When nil
	// and OracleCheck is set, each Redoop run gets a private store so
	// the oracle's lineage audit always has provenance to check.
	Lineage *lineage.Store
	// CacheDiskLimit bounds each node's local bytes on the Redoop
	// engines an experiment builds for single-source queries
	// (core.Config.CacheDiskLimit): over the limit, the one eviction
	// policy evicts the lowest benefit-density reduce-input caches
	// after the purge tick. A join experiment given a limit > 0 fails
	// at NewEngine, since a join's reduce inputs must stay resident.
	// 0 disables it.
	CacheDiskLimit int64
	// OracleCheck runs the differential window oracle after every
	// Redoop recurrence: a divergence from baseline recomputation or
	// a structural-invariant violation fails the run.
	OracleCheck bool
	// OnVerdict, when non-nil, receives every oracle verdict (system
	// label + per-recurrence result) before pass/fail is enforced —
	// the hook -chaos-report uses to build its JSON section.
	OnVerdict func(system string, v oracle.Verdict)
}

// notifyEngine invokes the OnEngine hook if set.
func (c Config) notifyEngine(e *core.Engine) {
	if c.OnEngine != nil {
		c.OnEngine(e)
	}
}

// Default returns the calibrated scale-model configuration.
func Default() Config {
	cost := iocost.Default()
	cost.TaskOverhead = 200 * time.Microsecond // sub-ms: the 0.8 s Hadoop task launch ÷ the 1000× scale, halved for the smaller blocks
	return Config{
		Workers:          10,
		MapSlots:         6,
		ReduceSlots:      2,
		BlockSize:        16 << 10,
		Replication:      3,
		Cost:             cost,
		Windows:          10,
		WindowDur:        60 * simtime.Minute,
		RecordsPerWindow: 240000,
		Reducers:         20,
		Seed:             42,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := Default()
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.MapSlots == 0 {
		c.MapSlots = d.MapSlots
	}
	if c.ReduceSlots == 0 {
		c.ReduceSlots = d.ReduceSlots
	}
	if c.BlockSize == 0 {
		c.BlockSize = d.BlockSize
	}
	if c.Replication == 0 {
		c.Replication = d.Replication
	}
	if c.Cost == (iocost.Model{}) {
		c.Cost = d.Cost
	}
	if c.Windows == 0 {
		c.Windows = d.Windows
	}
	if c.WindowDur == 0 {
		c.WindowDur = d.WindowDur
	}
	if c.RecordsPerWindow == 0 {
		c.RecordsPerWindow = d.RecordsPerWindow
	}
	if c.Reducers == 0 {
		c.Reducers = d.Reducers
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// SlideFor derives the slide from an overlap factor, snapped to whole
// minutes so pane units stay friendly (paper: overlap = (win-slide)/win).
func (c Config) SlideFor(overlap float64) simtime.Duration {
	slide := time.Duration(float64(c.WindowDur) * (1 - overlap))
	minute := simtime.Minute
	snapped := ((slide + minute/2) / minute) * minute
	if snapped < minute {
		snapped = minute
	}
	if snapped > c.WindowDur {
		snapped = c.WindowDur
	}
	return snapped
}

// WindowTiming is one window's measured times for one system.
type WindowTiming struct {
	Window   int // 1-based, as in the paper's plots
	Response simtime.Duration
	Shuffle  simtime.Duration
	Reduce   simtime.Duration
}

// Series is one system's measurements across the experiment's windows.
type Series struct {
	System  string
	Overlap float64
	Windows []WindowTiming
}

// TotalShuffle sums the shuffle phase over all windows (the paper's
// right-column bars).
func (s Series) TotalShuffle() simtime.Duration {
	var t simtime.Duration
	for _, w := range s.Windows {
		t += w.Shuffle
	}
	return t
}

// TotalReduce sums the reduce phase over all windows.
func (s Series) TotalReduce() simtime.Duration {
	var t simtime.Duration
	for _, w := range s.Windows {
		t += w.Reduce
	}
	return t
}

// TotalResponse sums per-window response times.
func (s Series) TotalResponse() simtime.Duration {
	var t simtime.Duration
	for _, w := range s.Windows {
		t += w.Response
	}
	return t
}

// MeanResponse averages the response time of windows from `from`
// (1-based) onward; from=2 skips the cold first window as the paper's
// speedup numbers do.
func (s Series) MeanResponse(from int) simtime.Duration {
	var t simtime.Duration
	n := 0
	for _, w := range s.Windows {
		if w.Window >= from {
			t += w.Response
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return t / simtime.Duration(n)
}

// Speedup returns a/b mean response from window `from`, guarding
// against zero.
func Speedup(a, b Series, from int) float64 {
	den := float64(b.MeanResponse(from))
	if den == 0 {
		return math.NaN()
	}
	return float64(a.MeanResponse(from)) / den
}

// Panel is one sub-figure: every system's series at one overlap.
type Panel struct {
	Overlap float64
	Series  []Series
}

// Find returns the named system's series.
func (p Panel) Find(system string) (Series, bool) {
	for _, s := range p.Series {
		if s.System == system {
			return s, true
		}
	}
	return Series{}, false
}

// FigResult is a regenerated figure.
type FigResult struct {
	Name   string
	Query  string
	Panels []Panel
}

// runSpec is one single-query workload: what is fed and what is asked.
type runSpec struct {
	sources int
	query   func() *core.Query
	// gen generates source src's batch for [startUnit, endUnit).
	gen func(src int, startUnit, endUnit int64, n int) []records.Record
	// rate, when non-nil, scales the volume of the pane starting at
	// the given unit; nil is a steady load.
	rate     func(startUnit int64) float64
	overlap  float64
	windows  int
	adaptive bool
}

// aggSpec is the WCC click-count aggregation (the paper's Q1) at one
// overlap, steady load, c.Windows recurrences.
func (c Config) aggSpec(name string, overlap float64) runSpec {
	wcc := workload.DefaultWCC(c.Seed)
	return runSpec{
		sources: 1,
		overlap: overlap,
		windows: c.Windows,
		gen: func(_ int, start, end int64, n int) []records.Record {
			return workload.WCC(wcc, start, end, n)
		},
		query: func() *core.Query {
			return queries.WCCAggregation(name, c.WindowDur, c.SlideFor(overlap), c.Reducers)
		},
	}
}

// joinSpec is the FFG readings ⋈ events join (the paper's Q2). The
// event side is sparse — game events are rare relative to position
// samples, which keeps the join selective.
func (c Config) joinSpec(name string, overlap float64) runSpec {
	ffg := workload.DefaultFFG(c.Seed)
	return runSpec{
		sources: 2,
		overlap: overlap,
		windows: c.Windows,
		gen: func(src int, start, end int64, n int) []records.Record {
			if src == 0 {
				return workload.FFGReadings(ffg, start, end, n)
			}
			return workload.FFGEvents(ffg, start, end, n/4)
		},
		query: func() *core.Query {
			return queries.FFGJoin(name, c.WindowDur, c.SlideFor(overlap), c.Reducers)
		},
	}
}

// NewRuntime builds an isolated cluster+DFS+runtime for the
// configuration (exported for the CLI tools); it panics on one that
// cluster.New, dfs.New or mapreduce.New refuses.
func (c Config) NewRuntime(seedShift int64) *mapreduce.Engine {
	ids := make([]int, c.Workers)
	for i := range ids {
		ids[i] = i
	}
	cl, err := cluster.New(cluster.Config{
		Workers: c.Workers, MapSlots: c.MapSlots, ReduceSlots: c.ReduceSlots,
	})
	if err != nil {
		panic(err)
	}
	d, err := dfs.New(dfs.Config{
		BlockSize:   c.BlockSize,
		Replication: c.Replication,
		Nodes:       ids,
		Seed:        c.Seed + seedShift,
	})
	if err != nil {
		panic(err)
	}
	d.SetObserver(c.Obs)
	d.SetTransferCost(c.Cost.NetTransfer)
	mr, err := mapreduce.New(cl, d, c.Cost)
	if err != nil {
		panic(err)
	}
	mr.Obs = c.Obs
	mr.Workers = c.ExecWorkers
	return mr
}

// paneFeed returns a run's feed callback: each call delivers every
// batch of spec whose range starts before the given unit bound.
// Batches arrive at pane granularity — the periodic log-collection
// uploads of §2.1 — so the baseline driver's file selection aligns with
// window edges the way the paper's Hadoop setup does.
func (c Config) paneFeed(spec runSpec) func(through int64, deliver ingestFunc) error {
	pane := window.GCD(int64(c.WindowDur), int64(c.SlideFor(spec.overlap)))
	// base is the records per pane at rate 1; fed counts panes delivered.
	base := int(float64(c.RecordsPerWindow) / (float64(c.WindowDur) / float64(pane)))
	fed := int64(0)
	return func(through int64, deliver ingestFunc) error {
		for ; fed*pane < through; fed++ {
			start, n := fed*pane, base
			if spec.rate != nil {
				n = int(float64(base) * spec.rate(start))
			}
			for src := 0; src < spec.sources; src++ {
				if err := deliver(src, spec.gen(src, start, start+pane, n)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}
