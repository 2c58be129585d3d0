package main

import (
	"redoop/internal/core"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/workload"
)

// Harness-wide constants. Every workload shares them so a number from
// one workload is comparable with the same number from another.
const (
	// poolPanes is how many distinct pane batches are generated per
	// source; the run replays them cyclically (see pool).
	poolPanes = 18
	// warmRecurrences are run and verified against the Hadoop baseline
	// before anything is measured: one pool period at one pane per
	// slide, so every pool batch has been the new pane once.
	warmRecurrences = 18
	// minSteady is the fewest steady recurrences a run measures, however
	// short -seconds is: p90 then has ten samples beyond it.
	minSteady = 100
	// fixedSteady is the steady prefix the deterministic metrics
	// (virt_response_ms, live_heap_mb) are taken over, so they do not
	// depend on how many recurrences the host fits into -seconds. It is
	// a whole number of pool periods for every workload.
	fixedSteady = 90
	// traceSteady and sweepSteady are the steady recurrence counts of
	// the -trace run's traced pass and of each sidecar on/off pass.
	// Fixed counts, not -seconds, so exact-count metrics repeat.
	traceSteady = 30
	sweepSteady = 50
	// parWarm and parSteady size the two passes behind
	// parallel.speedup_x.
	parWarm   = 4
	parSteady = 12
)

// source generates one input source's pane batch.
type source struct {
	recsPerPane int
	gen         func(seed, startUnit, endUnit int64, n int) []records.Record
}

// sidecars selects which optional observers an engine is built with.
type sidecars struct {
	obs, account, lineage, reuse, oracle bool
}

var allObservers = sidecars{obs: true, account: true, lineage: true, reuse: true}

// spec is one benchmark workload. Cluster and cost model are always
// experiments.Default(); a workload varies only the query, the overlap,
// the data volume, the executor width and the attached sidecars.
type spec struct {
	name, why   string
	slide       simtime.Duration
	sources     []source
	query       func(slide simtime.Duration) *core.Query
	execWorkers int
	sidecars    sidecars
}

const window60 = 60 * simtime.Minute

func wccSource(n int) source {
	return source{recsPerPane: n, gen: func(seed, lo, hi int64, n int) []records.Record {
		return workload.WCC(workload.DefaultWCC(seed), lo, hi, n)
	}}
}

func aggQuery(slide simtime.Duration) *core.Query {
	return queries.WCCAggregation("q1", window60, slide, 20)
}

func joinQuery(slide simtime.Duration) *core.Query {
	return queries.FFGJoin("q2", window60, slide, 20)
}

var (
	aggHi = spec{
		name:  "agg-hi-overlap",
		why:   "Q1 aggregation at overlap 0.9: 1 new pane, 9 cached; small operations, so latency and fixed per-recurrence overhead show",
		slide: 6 * simtime.Minute, sources: []source{wccSource(24000)},
		query: aggQuery, execWorkers: 1,
	}
	aggLo = spec{
		name:  "agg-lo-overlap",
		why:   "Q1 at overlap 0.1: 9 new panes per recurrence; map, shuffle, reduce and packer do the work, caches are written but hardly read",
		slide: 54 * simtime.Minute, sources: []source{wccSource(24000)},
		query: aggQuery, execWorkers: 1,
	}
	joinHi = spec{
		name:  "join-hi-overlap",
		why:   "Q2 join at overlap 0.9: 81 of 100 pane pairs come from tuple caches; cache read and output assembly dominate, map work is small",
		slide: 6 * simtime.Minute,
		sources: []source{
			{recsPerPane: 3000, gen: func(seed, lo, hi int64, n int) []records.Record {
				return workload.FFGReadings(workload.DefaultFFG(seed), lo, hi, n)
			}},
			{recsPerPane: 750, gen: func(seed, lo, hi int64, n int) []records.Record {
				return workload.FFGEvents(workload.DefaultFFG(seed), lo, hi, n)
			}},
		},
		query: joinQuery, execWorkers: 1,
	}
	aggHiObserved = spec{
		name:  "agg-hi-overlap-observed",
		why:   "agg-hi-overlap input with obs, health, account, lineage and reuse attached; the difference to agg-hi-overlap is the observers' cost",
		slide: aggHi.slide, sources: aggHi.sources,
		query: aggQuery, execWorkers: 1, sidecars: allObservers,
	}
	aggLoW2 = spec{
		name:  "agg-lo-overlap-w2",
		why:   "agg-lo-overlap input with two executor workers; the only workload where the parallel pool and the serial commit tail matter",
		slide: aggLo.slide, sources: aggLo.sources,
		query: aggQuery, execWorkers: 2,
	}
)

var workloads = []spec{aggHi, aggLo, joinHi, aggHiObserved, aggLoW2}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// metric is one row of the metric tables below. The tables are the
// single source for -list, the reports, -aa and the BENCHMARK.json
// consistency test.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the baseline median
	exact  bool    // per-layer only: a count that must repeat bit-for-bit for one seed
	help   string
}

// The three time metrics and setup_s carry the widest bound a benchmark
// may declare. On the shared sandbox ten runs of one binary spread (first
// to third quartile) by up to 14% of their median and two sets of ten
// differ by up to 15%, even after host-speed scaling; see README.md,
// "Noise". The counted metrics spread by less than 1% and carry bounds of
// three times that or more.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, help: "pool generation + runtime/engine construction (median of 3 set-ups), host-speed scaled"},
	{name: "recurrence_ms_p50", unit: "ms", better: "lower", bound: 0.25, help: "median wall time of a steady recurrence (Ingest of the slide + RunNext), host-speed scaled"},
	{name: "recurrence_ms_p90", unit: "ms", better: "lower", bound: 0.25, help: "90th percentile of the same samples"},
	{name: "throughput_krec_s", unit: "krec/s", better: "higher", bound: 0.25, help: "records ingested in steady recurrences / scaled wall seconds spent in them"},
	{name: "alloc_mb_per_recurrence", unit: "MB", better: "lower", bound: 0.03, help: "MemStats.TotalAlloc delta inside the timer, mean per steady recurrence"},
	{name: "mallocs_k_per_recurrence", unit: "k", better: "lower", bound: 0.02, help: "MemStats.Mallocs delta inside the timer, mean per steady recurrence, thousands"},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05, help: "HeapAlloc after forced GC at steady recurrence 90, minus the same reading after set-up"},
	{name: "virt_response_ms", unit: "ms", better: "lower", bound: 0.03, help: "mean RecurrenceResult.ResponseTime (virtual time) over the first 90 steady recurrences"},
}

// singleSidecars are the one-at-a-time attachments behind sidecar.*.
var singleSidecars = []struct {
	name   string
	attach sidecars
}{
	{"obs", sidecars{obs: true}},
	{"account", sidecars{account: true}},
	{"lineage", sidecars{lineage: true}},
	{"reuse", sidecars{reuse: true}},
	{"oracle", sidecars{oracle: true}},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	lo := func(name, unit, help string) metric {
		return metric{name: name, unit: unit, better: "lower", help: help}
	}
	hi := func(name, unit, help string) metric {
		return metric{name: name, unit: unit, better: "higher", help: help}
	}
	count := func(m metric) metric { m.exact = true; return m }
	ms := []metric{
		lo("workload.generate_ms_per_krec", "ms/krec", "generator time per thousand pool records"),

		lo("packer.ingest_ms", "ms", "shadow Packer.Ingest of the slide's batches"),
		lo("packer.flush_ms", "ms", "shadow Packer.FlushThrough (sort + encode + DFS write)"),
		lo("packer.alloc_kb", "KB", "bytes allocated by the two packer calls"),

		lo("dfs.write_ms", "ms", "DFS.Write of the slide's pane files"),
		lo("dfs.read_ms", "ms", "DFS.Read of the slide's pane files"),
		count(lo("dfs.bytes_read", "bytes", "Stats.BytesRead")),
		count(hi("dfs.local_read_ratio", "ratio", "Stats.BytesReadLocal / Stats.BytesRead")),
		count(lo("dfs.total_mb_end", "MB", "DFS.TotalBytes at the end of the traced pass")),

		lo("colfmt.encode_records_ms", "ms", "EncodeRecords of the slide's batches"),
		lo("colfmt.decode_records_ms", "ms", "DecodeRecords of the slide's pane files"),
		lo("colfmt.encode_pairs_ms", "ms", "EncodePairs of the replayed reduce inputs and outputs"),
		lo("colfmt.decode_pairs_ms", "ms", "DecodePairs of every resident reduce-output cache"),
		count(lo("colfmt.pairs_mb", "MB", "encoded size of those resident reduce-output caches")),

		lo("mapreduce.map_prepare_ms", "ms", "PrepareMapPhase over the slide's new panes"),
		lo("mapreduce.map_commit_ms", "ms", "CommitMapPhase of the same"),
		lo("mapreduce.map_merge_ms", "ms", "MergeMapPhases of the same"),
		lo("mapreduce.reduce_ms", "ms", "RunReducePhase of the same"),
		lo("mapreduce.group_ms", "ms", "GroupPairs over the same partitions (part of reduce_ms)"),
		lo("mapreduce.replay_alloc_mb", "MB", "bytes allocated by the replayed map and reduce calls"),
		count(lo("mapreduce.map_tasks", "count", "Stats.MapTasks")),
		count(lo("mapreduce.reduce_tasks", "count", "Stats.ReduceTasks")),
		count(lo("mapreduce.bytes_shuffled", "bytes", "Stats.BytesShuffled")),
		count(lo("mapreduce.failed_attempts", "count", "Stats.FailedAttempts")),

		count(hi("cache.pane_hit_ratio", "ratio", "ReusedPanes / (NewPanes + ReusedPanes)")),
		count(hi("cache.pair_hit_ratio", "ratio", "ReusedPairs / (NewPairs + ReusedPairs); 0 for one-source queries")),
		count(lo("cache.bytes_read", "bytes", "Stats.BytesCacheRead")),
		count(lo("cache.recoveries", "count", "CacheRecoveries")),
		count(lo("cache.resident_mb_end", "MB", "sum of Registry.CachedBytes at the end of the traced pass")),
		lo("registry.add_ms", "ms", "Registry.Add of the replayed panes' encoded caches"),
		lo("registry.get_ms", "ms", "Registry.Get (copy at sink) of every resident reduce-output cache"),

		lo("engine.ingest_ms", "ms", "Engine.Ingest of the slide's batches"),
		lo("engine.run_ms", "ms", "Engine.RunNext"),
		lo("engine.cold_run_ms", "ms", "Engine.RunNext of recurrence 0"),
		count(lo("engine.output_pairs", "count", "len(RecurrenceResult.Output)")),
		lo("engine.unattributed_ms", "ms", "engine.run_ms minus the replayed stage spans RunNext contains"),
		lo("engine.heap_growth_kb", "KB", "live-heap growth per steady recurrence of the untraced pass"),

		lo("baseline.run_ms_p50", "ms", "median host time of a baseline.Driver recurrence (18 verified)"),
		count(lo("baseline.virt_response_ms", "ms", "mean virtual response of the baseline, recurrences 1-17")),
		hi("host_speedup_x", "x", "baseline / Redoop host p50 over recurrences 1-17"),
		count(hi("virt_speedup_x", "x", "baseline / Redoop mean virtual response over recurrences 1-17")),

		count(lo("virt.map_ms", "ms", "Stats.MapTime")),
		count(lo("virt.shuffle_ms", "ms", "Stats.ShuffleTime")),
		count(lo("virt.reduce_ms", "ms", "Stats.ReduceTime")),
		lo("host_virt_ratio.map", "ratio", "replayed map host ms / virt.map_ms"),
		lo("host_virt_ratio.reduce", "ratio", "replayed reduce host ms / virt.reduce_ms"),

		hi("parallel.speedup_x", "x", "throughput of agg-lo-overlap at 2 executor workers / at 1"),
		lo("parallel.serial_share", "ratio", "(commit + merge) / (prepare + commit + merge + reduce) of the replay"),
	}
	for _, sc := range singleSidecars {
		ms = append(ms,
			lo("sidecar."+sc.name+".overhead_ms", "ms", "agg-hi-overlap p50 with only "+sc.name+" attached minus p50 with none"),
			lo("sidecar."+sc.name+".alloc_kb", "KB", "allocation per recurrence, same difference"),
			lo("sidecar."+sc.name+".heap_growth_kb", "KB", "live-heap growth per recurrence, same difference"),
		)
	}
	return append(ms,
		lo("gc.cycles", "count", "GC cycles per steady recurrence of the traced pass"),
		lo("gc.pause_ms", "ms", "GC pause per steady recurrence of the traced pass"),
		count(lo("trace.spans", "count", "spans recorded by the traced pass")),
		lo("trace.overhead_pct", "%", "engine.run_ms p50 traced vs untraced"),
	)
}
