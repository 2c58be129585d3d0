// Package redoop is a Go reproduction of Redoop ("Redoop: Supporting
// Recurring Queries in Hadoop", Lei, Rundensteiner and Eltabakh, EDBT
// 2014): a MapReduce runtime extended with first-class support for
// recurring queries — periodic sliding-window analytics over evolving
// data.
//
// A recurring query is an ordinary map/reduce program plus a window
// constraint (win, slide) per input source. Redoop slices the inputs
// into panes of GCD(win, slide), processes and shuffles each pane only
// once, caches reduce-side intermediates on task nodes' local disks,
// schedules work near its caches, and assembles each window's answer
// incrementally from the cached pane results — with automatic recovery
// when caches are lost and adaptive sub-pane processing under load
// spikes.
//
// The cluster itself is simulated: task placement, slots, block
// layout, shuffle structure and failures are modelled faithfully, user
// functions really execute over the data, and all timings are virtual,
// derived from a calibrated cost model. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper's reproduced
// evaluation.
//
// Basic usage:
//
//	sys, _ := redoop.NewSystem(redoop.DefaultClusterConfig())
//	q := &redoop.Query{
//		Name:    "clicks",
//		Sources: []redoop.Source{{Name: "S1", Window: redoop.TimeWindow(12*time.Hour, time.Hour)}},
//		Maps:    []redoop.MapFunc{countMap},
//		Reduce:  sumReduce,
//		Merge:   sumReduce,
//		Reducers: 8,
//	}
//	h, _ := sys.Register(q)
//	h.Ingest(0, batch)       // as data arrives
//	res, _ := h.RunNext()    // each time the window slides
package redoop

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

	"redoop/internal/baseline"
	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/dfs"
	"redoop/internal/iocost"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/window"
)

// Record is one timestamped tuple of an evolving data source. For
// time-based windows Ts is virtual nanoseconds; for count-based
// windows it is the record's ordinal.
type Record struct {
	Ts   int64
	Data []byte
}

// Pair is one key/value pair of a query's output.
type Pair struct {
	Key   []byte
	Value []byte
}

// Emitter is where a user function emits its pairs with Emit. An emit
// copies, so the caller may reuse its buffers at once: map, reduce,
// combine and merge emits alike, as Hadoop's collect and context.write.
type Emitter = mapreduce.Emitter

// MapFunc is a user map function, invoked once per input record — the
// same interface a Hadoop mapper implements (paper §5). payload is valid
// for the call and must not be written.
type MapFunc func(ts int64, payload []byte, emit Emitter)

// ReduceFunc is a user reduce function, invoked once per distinct key
// with all of that key's values. key, values and their bytes are valid
// only for the call, like Hadoop's value iterator, and must not be
// written.
type ReduceFunc func(key []byte, values [][]byte, emit Emitter)

// Partitioner assigns a key to one of n reduce partitions. It must be
// deterministic and fixed for a query's lifetime (§4.3), and pure in the
// key: the runtime may call it only once per distinct key per executor
// worker and give every pair of that key the answer.
type Partitioner func(key []byte, n int) int

// Collector gathers what a user function emits when no query runs it: a
// test calling a MapFunc or ReduceFunc, or a Merge that applies its
// Reduce to a key's values. The zero value is ready.
type Collector struct{ w colfmt.PairWriter }

// Emitter returns an Emitter that copies every pair it is given into c.
func (c *Collector) Emitter() Emitter { return mapreduce.EmitTo(&c.w) }

// Pairs returns the pairs emitted into c so far, in emit order: copies,
// which later emits leave as they are.
func (c *Collector) Pairs() []Pair {
	_, run := c.w.Segment()
	out := make([]Pair, run.Len())
	for i := range out {
		out[i] = Pair{Key: run.Key(i), Value: run.Value(i)}
	}
	return out
}

// CostModel parameterizes the virtual-time task cost model; all rates
// are bytes per second of virtual time.
type CostModel struct {
	DiskReadBps  float64
	DiskWriteBps float64
	NetBps       float64
	MapCPUBps    float64
	ReduceCPUBps float64
	SortBps      float64
	TaskOverhead time.Duration
}

// DefaultCostModel returns the library's scale-model calibration: the
// paper testbed's disk/network/CPU rates with the fixed per-task
// overhead shrunk by the same ~1000× factor as DefaultClusterConfig's
// block and data sizes, so task counts and phase ratios at megabyte
// scale match the original system's at gigabyte scale. For real-scale
// studies use PaperCostModel and gigabyte windows.
func DefaultCostModel() CostModel {
	m := iocost.Default()
	m.TaskOverhead = 200 * time.Microsecond
	return fromIOCost(m)
}

// PaperCostModel mirrors the paper's commodity testbed unscaled,
// including the ~0.8 s Hadoop task launch overhead.
func PaperCostModel() CostModel {
	return fromIOCost(iocost.Default())
}

func fromIOCost(m iocost.Model) CostModel {
	return CostModel{
		DiskReadBps:  m.DiskReadBps,
		DiskWriteBps: m.DiskWriteBps,
		NetBps:       m.NetBps,
		MapCPUBps:    m.MapCPUBps,
		ReduceCPUBps: m.ReduceCPUBps,
		SortBps:      m.SortBps,
		TaskOverhead: m.TaskOverhead,
	}
}

func (c CostModel) toIOCost() iocost.Model {
	return iocost.Model{
		DiskReadBps:  c.DiskReadBps,
		DiskWriteBps: c.DiskWriteBps,
		NetBps:       c.NetBps,
		MapCPUBps:    c.MapCPUBps,
		ReduceCPUBps: c.ReduceCPUBps,
		SortBps:      c.SortBps,
		TaskOverhead: c.TaskOverhead,
	}
}

// ClusterConfig shapes the simulated cluster and file system.
type ClusterConfig struct {
	// Workers is the number of slave nodes.
	Workers int
	// MapSlotsPerWorker / ReduceSlotsPerWorker bound concurrent tasks
	// per node (paper: 6 and 2).
	MapSlotsPerWorker    int
	ReduceSlotsPerWorker int
	// BlockSize is the DFS block size in bytes.
	BlockSize int64
	// Replication is the DFS replication factor (paper: 3).
	Replication int
	// Cost is the task cost model.
	Cost CostModel
	// Seed drives deterministic replica placement.
	Seed int64
	// Jitter makes task durations non-deterministic (scaled by a
	// seeded per-task factor in [1, 1+Jitter], with occasional
	// stragglers); zero keeps the simulation fully deterministic.
	Jitter float64
	// StragglerProb and StragglerFactor shape the straggler tail
	// (defaults 0.05 and 4 when Jitter is set).
	StragglerProb   float64
	StragglerFactor float64
	// JitterSeed reproduces a jittered run exactly.
	JitterSeed int64
	// Speculative enables Hadoop-style speculative map execution.
	// The paper's evaluation disabled it (§6.1); it is off by default.
	Speculative bool
}

// DefaultClusterConfig is the library's reduced-scale model of the
// paper's testbed: 10 workers with 6 map and 2 reduce slots each,
// 3-way replication, and 16 KiB blocks standing in for 64 MiB ones —
// sized so that realistic megabyte windows span enough blocks to fill
// the cluster's task slots, as gigabyte windows did on the original
// 30-node cluster.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Workers:              10,
		MapSlotsPerWorker:    6,
		ReduceSlotsPerWorker: 2,
		BlockSize:            16 << 10,
		Replication:          3,
		Cost:                 DefaultCostModel(),
		Seed:                 1,
	}
}

// WindowSpec is a window constraint.
type WindowSpec struct {
	spec window.Spec
}

// TimeWindow builds a time-based window constraint: each execution
// processes the last `win` of data and executions recur every `slide`.
func TimeWindow(win, slide time.Duration) WindowSpec {
	return WindowSpec{spec: window.NewTimeSpec(win, slide)}
}

// CountWindow builds a count-based window constraint over record
// ordinals.
func CountWindow(win, slide int64) WindowSpec {
	return WindowSpec{spec: window.NewCountSpec(win, slide)}
}

// Pane returns the window's pane unit GCD(win, slide) in its native
// units (nanoseconds or records).
func (w WindowSpec) Pane() int64 { return w.spec.PaneUnit() }

// Overlap returns the fraction of a window shared with its
// predecessor, (win-slide)/win.
func (w WindowSpec) Overlap() float64 { return w.spec.Overlap() }

// Source is one evolving input of a recurring query.
type Source struct {
	// Name identifies the source in pane file paths and caches.
	Name string
	// Window is the source's window constraint. All sources of one
	// query share the slide (the recurrence cadence) and window kind;
	// window *sizes* may differ, in which case each recurrence
	// triggers when the largest window has filled and every source
	// contributes its own most recent win of data.
	Window WindowSpec
	// CacheKey opts into cross-query reduce-input cache sharing; see
	// Query for the contract.
	CacheKey string
	// RateBytesPerUnit seeds the Semantic Analyzer's file-packing
	// decision (Algorithm 1); zero lets the system default to one
	// pane per file until it learns the rate.
	RateBytesPerUnit float64
}

// Query is a recurring query specification.
type Query struct {
	// Name identifies the query.
	Name string
	// Sources are the query's inputs: one for aggregations, two or
	// more (up to four) for multi-way joins.
	Sources []Source
	// Maps holds one map function per source.
	Maps []MapFunc
	// Reduce runs per pane (one source) or per pane pair (two
	// sources). It must be window-decomposable: applying Reduce to
	// pane subsets and merging with Merge must equal reducing the
	// whole window (true of algebraic aggregates and of joins).
	Reduce ReduceFunc
	// Combine optionally pre-aggregates map output (Hadoop combiner).
	Combine ReduceFunc
	// Merge is the finalization function (§5) merging per-pane
	// partial outputs into a window's output. A key's values arrive
	// in window order and must be combined independently of their
	// order. Required for single-source queries; nil for joins means
	// the window's result is the union of its pane-pair results.
	Merge ReduceFunc
	// Reducers fixes the number of reduce partitions.
	Reducers int
	// Partition optionally overrides the hash partitioner.
	Partition Partitioner
	// Adaptive enables §3.3's adaptive input partitioning and
	// proactive execution.
	Adaptive bool
	// Logger optionally receives the query's operational events
	// (recurrence summaries, cache recoveries, adaptive re-planning).
	Logger *slog.Logger
}

// System is one simulated cluster hosting any number of recurring
// queries (which may share caches) plus plain-Hadoop baseline jobs for
// comparison. A System owns a single virtual timeline; methods are not
// safe for concurrent use, and when several queries share the System,
// their recurrences must be driven in global window-close order (run
// whichever handle's next window closes earliest).
type System struct {
	mr   *mapreduce.Engine
	ctrl *core.Controller
	hub  *core.SourceHub
}

// NewSystem builds a cluster and file system per cfg.
func NewSystem(cfg ClusterConfig) (*System, error) {
	cl, err := cluster.New(cluster.Config{
		Workers:     cfg.Workers,
		MapSlots:    cfg.MapSlotsPerWorker,
		ReduceSlots: cfg.ReduceSlotsPerWorker,
	})
	if err != nil {
		return nil, err
	}
	ids := make([]int, cfg.Workers)
	for i := range ids {
		ids[i] = i
	}
	d, err := dfs.New(dfs.Config{
		BlockSize:   cfg.BlockSize,
		Replication: cfg.Replication,
		Nodes:       ids,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	mr, err := mapreduce.New(cl, d, cfg.Cost.toIOCost())
	if err != nil {
		return nil, err
	}
	mr.Jitter = cfg.Jitter
	mr.StragglerProb = cfg.StragglerProb
	mr.StragglerFactor = cfg.StragglerFactor
	mr.JitterSeed = cfg.JitterSeed
	mr.Speculative = cfg.Speculative
	return &System{
		mr:   mr,
		ctrl: core.NewController(),
		hub:  core.NewSourceHub(d, cfg.BlockSize),
	}, nil
}

// FailNode kills a worker: its local caches are lost and its DFS
// replicas re-replicate; queries recover automatically (§5).
func (s *System) FailNode(id int) {
	s.mr.DFS.FailNode(id)
	s.mr.Cluster.FailNode(id)
}

// ShareSource declares a data source shared by several queries: its
// batches are ingested exactly once (IngestShared) and packed into one
// set of pane files at the granularity of the given window constraint.
// Queries consume it by naming the key in a Source's CacheKey — their
// pane unit must be a multiple of the shared one — and additionally
// reuse each other's reduce-input caches where their map functions and
// partitioning agree. rateBytesPerUnit feeds the Semantic Analyzer's
// file-packing decision (zero defaults to one pane per file).
func (s *System) ShareSource(key string, w WindowSpec, rateBytesPerUnit float64) error {
	return s.hub.Share(key, key, w.spec, rateBytesPerUnit)
}

// IngestShared feeds a batch into a shared source, once for all its
// consumers.
func (s *System) IngestShared(key string, recs []Record) error {
	in := make([]records.Record, len(recs))
	for i, r := range recs {
		in[i] = records.Record{Ts: r.Ts, Data: r.Data}
	}
	return s.hub.Ingest(key, in)
}

// DropCaches deletes all cached intermediate data from one node
// without killing it — the cache-failure injection of the paper's
// Figure 9 experiment.
func (s *System) DropCaches(node int) int {
	return s.mr.Cluster.DropLocal(node, "cache/")
}

// toCoreQuery converts the public query to the engine's form.
func toCoreQuery(q *Query) (*core.Query, error) {
	if q == nil {
		return nil, fmt.Errorf("redoop: nil query")
	}
	cq := &core.Query{
		Name:        q.Name,
		Reduce:      mapreduce.ReduceFunc(q.Reduce),
		Combine:     mapreduce.ReduceFunc(q.Combine),
		Merge:       mapreduce.ReduceFunc(q.Merge),
		NumReducers: q.Reducers,
		Partition:   mapreduce.Partitioner(q.Partition),
	}
	for _, src := range q.Sources {
		cq.Sources = append(cq.Sources, core.Source{
			Name:             src.Name,
			Spec:             src.Window.spec,
			CacheKey:         src.CacheKey,
			RateBytesPerUnit: src.RateBytesPerUnit,
		})
	}
	for _, m := range q.Maps {
		cq.Maps = append(cq.Maps, mapreduce.MapFunc(m))
	}
	return cq, nil
}

// Register validates a recurring query and installs it on the system,
// returning its handle. Queries registered on the same System share
// the window-aware cache controller, so sources with matching
// CacheKeys reuse each other's reduce-input caches.
func (s *System) Register(q *Query) (*QueryHandle, error) {
	cq, err := toCoreQuery(q)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(core.Config{
		MR:         s.mr,
		Query:      cq,
		Controller: s.ctrl,
		Adaptive:   q.Adaptive,
		Logger:     q.Logger,
		Hub:        s.hub,
	})
	if err != nil {
		return nil, err
	}
	return &QueryHandle{sys: s, eng: eng, query: cq}, nil
}

// RegisterBaseline installs the same query under the plain-Hadoop
// execution strategy (one full job per recurrence, no caching) for
// side-by-side comparison on an identical cluster configuration. The
// baseline shares the System's virtual timeline; for fair timing
// comparisons use separate Systems.
func (s *System) RegisterBaseline(q *Query) (*BaselineHandle, error) {
	cq, err := toCoreQuery(q)
	if err != nil {
		return nil, err
	}
	drv, err := baseline.NewDriver(s.mr, cq)
	if err != nil {
		return nil, err
	}
	return &BaselineHandle{drv: drv}, nil
}

// Stats summarizes one recurrence's measured work.
type Stats struct {
	// Response is the recurrence's processing time: output ready
	// minus window close.
	Response time.Duration
	// MapTime, ShuffleTime and ReduceTime are summed per-phase task
	// durations.
	MapTime     time.Duration
	ShuffleTime time.Duration
	ReduceTime  time.Duration
	// Byte accounting.
	BytesRead      int64
	BytesShuffled  int64
	BytesCacheRead int64
	BytesOutput    int64
	// Task accounting.
	MapTasks       int
	ReduceTasks    int
	FailedAttempts int
}

func toStats(m mapreduce.Stats, response time.Duration) Stats {
	return Stats{
		Response:       response,
		MapTime:        m.MapTime,
		ShuffleTime:    m.ShuffleTime,
		ReduceTime:     m.ReduceTime,
		BytesRead:      m.BytesRead,
		BytesShuffled:  m.BytesShuffled,
		BytesCacheRead: m.BytesCacheRead,
		BytesOutput:    m.BytesOutput,
		MapTasks:       m.MapTasks,
		ReduceTasks:    m.ReduceTasks,
		FailedAttempts: m.FailedAttempts,
	}
}

// Result is one recurrence's outcome.
type Result struct {
	// Recurrence is the execution's 0-based index.
	Recurrence int
	// Output is the window's result in deterministic order. Keys and
	// values may alias the engine's cached bytes: read them, re-order
	// the slice freely, but do not write through them.
	Output []Pair
	// Stats is the measured work and timing.
	Stats Stats
	// NewPanes / ReusedPanes count pane-level processing vs reuse;
	// NewPairs / ReusedPairs count pane pairs for joins.
	NewPanes, ReusedPanes int
	NewPairs, ReusedPairs int
	// CacheRecoveries counts lost caches detected and rebuilt.
	CacheRecoveries int
	// Proactive reports whether the recurrence ran in the adaptive
	// proactive mode, and SubPanes its pane subdivision factor.
	Proactive bool
	SubPanes  int
}

func toPairs(ps []records.Pair) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{Key: p.Key, Value: p.Value}
	}
	return out
}

// QueryHandle drives one registered recurring query.
type QueryHandle struct {
	sys   *System
	eng   *core.Engine
	query *core.Query
}

// Ingest feeds a batch of records into source src. Batches must arrive
// in timestamp order with non-overlapping ranges (paper §2.1).
func (h *QueryHandle) Ingest(src int, recs []Record) error {
	in := make([]records.Record, len(recs))
	for i, r := range recs {
		in[i] = records.Record{Ts: r.Ts, Data: r.Data}
	}
	return h.eng.Ingest(src, in)
}

// RunNext executes the query's next recurrence and returns its result.
// The window's final output is also committed to the DFS under
// OutputPath(recurrence).
func (h *QueryHandle) RunNext() (*Result, error) {
	r := h.eng.NextRecurrence()
	res, err := h.eng.RunNext()
	if err != nil {
		return nil, err
	}
	// Commit the recurrence's output for OutputPath consumers. The
	// write itself was already charged by the finalization tasks.
	enc := colfmt.EncodePairs(res.Output)
	if err := h.sys.mr.DFS.Write(h.OutputPath(r), enc); err != nil {
		return nil, err
	}
	return &Result{
		Recurrence:      res.Recurrence,
		Output:          toPairs(res.Output),
		Stats:           toStats(res.Stats, res.ResponseTime),
		NewPanes:        res.NewPanes,
		ReusedPanes:     res.ReusedPanes,
		NewPairs:        res.NewPairs,
		ReusedPairs:     res.ReusedPairs,
		CacheRecoveries: res.CacheRecoveries,
		Proactive:       res.Proactive,
		SubPanes:        res.SubPanes,
	}, nil
}

// NextRecurrence returns the index RunNext will execute next.
func (h *QueryHandle) NextRecurrence() int { return h.eng.NextRecurrence() }

// InputPaths is the GetInputPaths analogue of the paper's API (§5): it
// returns the DFS pane files covering the given recurrence's window —
// both newly arrived panes and panes whose intermediate state is
// cached. Panes not yet flushed are omitted.
func (h *QueryHandle) InputPaths(recurrence int) []string {
	spec := h.query.Spec()
	lo, hi := spec.WindowRange(recurrence)
	seen := map[string]bool{}
	var out []string
	for src := range h.query.Sources {
		for p := lo; p <= hi; p++ {
			ins, ok := h.eng.PaneInputs(src, p)
			if !ok {
				continue
			}
			for _, in := range ins {
				if !seen[in.Input.Path] {
					seen[in.Input.Path] = true
					out = append(out, in.Input.Path)
				}
			}
		}
	}
	return out
}

// OutputPath is the GetOutputPaths analogue (§5): the unique DFS path
// holding the given recurrence's final output.
func (h *QueryHandle) OutputPath(recurrence int) string {
	return fmt.Sprintf("/redoop/%s/out/r%06d", h.query.Name, recurrence)
}

// ReadOutput loads a past recurrence's committed output from the DFS.
// The result is the caller's own: its pairs are views of a private copy
// of the stored file, not of the file.
func (h *QueryHandle) ReadOutput(recurrence int) ([]Pair, error) {
	data, err := h.sys.mr.DFS.Read(h.OutputPath(recurrence))
	if err != nil {
		return nil, err
	}
	ps, err := colfmt.DecodePairs(slices.Clone(data))
	if err != nil {
		return nil, err
	}
	return toPairs(ps), nil
}

// Forecast returns the profiler's execution-time prediction for the
// next recurrence (Holt double exponential smoothing, §3.3); zero
// before enough recurrences have been observed.
func (h *QueryHandle) Forecast() time.Duration {
	if !h.eng.Profiler().Ready() {
		return 0
	}
	return h.eng.Profiler().Forecast(1)
}

// Proactive reports whether the next recurrence will run in the
// adaptive proactive mode.
func (h *QueryHandle) Proactive() bool { return h.eng.Proactive() }

// Observation is one recurrence's execution record from the profiler.
type Observation struct {
	Recurrence int
	Exec       time.Duration
	InputBytes int64
}

// History returns the Execution Profiler's observations (§3.3), oldest
// first. The cold first recurrence is not observed, and only the newest
// 256 are kept, so a query that recurs forever holds constant memory.
func (h *QueryHandle) History() []Observation {
	hist := h.eng.Profiler().History()
	out := make([]Observation, len(hist))
	for i, o := range hist {
		out[i] = Observation{Recurrence: o.Recurrence, Exec: o.Exec, InputBytes: o.InputBytes}
	}
	return out
}

// BaselineHandle drives the same query under plain-Hadoop execution.
type BaselineHandle struct {
	drv *baseline.Driver
}

// Ingest feeds a batch, mirroring QueryHandle.Ingest.
func (b *BaselineHandle) Ingest(src int, recs []Record) error {
	in := make([]records.Record, len(recs))
	for i, r := range recs {
		in[i] = records.Record{Ts: r.Ts, Data: r.Data}
	}
	return b.drv.Ingest(src, in)
}

// RunNext re-executes the full window as one MapReduce job.
func (b *BaselineHandle) RunNext() (*Result, error) {
	res, err := b.drv.RunNext()
	if err != nil {
		return nil, err
	}
	return &Result{
		Recurrence: res.Recurrence,
		Output:     toPairs(res.Output),
		Stats:      toStats(res.Stats, res.ResponseTime),
	}, nil
}

// SortPairs orders pairs by key then value, the deterministic order
// used to compare outputs.
func SortPairs(ps []Pair) {
	in := make([]records.Pair, len(ps))
	for i, p := range ps {
		in[i] = records.Pair{Key: p.Key, Value: p.Value}
	}
	mapreduce.SortPairs(in)
	for i, p := range in {
		ps[i] = Pair{Key: p.Key, Value: p.Value}
	}
}

// CacheEntry describes one cache registered with the window-aware cache
// controller, for operational inspection.
type CacheEntry struct {
	// ID is the cache identifier (pane or pane-pair, per partition).
	ID string
	// Node hosts the cached bytes.
	Node int
	// Input reports a reduce-input cache (vs reduce-output).
	Input bool
	// Bytes is the cached size.
	Bytes int64
}

// CacheReport lists every live cache on the system, sorted by ID — the
// master-side view the window-aware cache controller maintains (§4.2).
func (s *System) CacheReport() []CacheEntry {
	var out []CacheEntry
	for _, sig := range s.ctrl.Signatures() {
		out = append(out, CacheEntry{
			ID:    sig.PID,
			Node:  sig.NID,
			Input: sig.Type == core.ReduceInput,
			Bytes: sig.Bytes,
		})
	}
	return out
}

// CachedBytes returns the total bytes of intermediate data currently
// cached on the cluster's local file systems.
func (s *System) CachedBytes() int64 {
	var total int64
	for _, sig := range s.ctrl.Signatures() {
		if sig.Ready == core.CacheAvailable {
			total += sig.Bytes
		}
	}
	return total
}
