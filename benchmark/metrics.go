package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// over maps samples to one float each.
func over(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// slowdowns is the host's slowdown factor around each sample (see
// calib.go).
func slowdowns(ss []sample) []float64 {
	calib := make([]time.Duration, len(ss))
	for i, s := range ss {
		calib[i] = s.calib
	}
	return hostSpeed(calib)
}

// scaled is f over the samples in milliseconds, each value divided by
// the host's slowdown around its sample. Every host time that is
// compared across runs or passes goes through it.
func scaled(ss []sample, f func(sample) time.Duration) []float64 {
	speed := slowdowns(ss)
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(f(s)) / speed[i]
	}
	return out
}

// throughput is new records (thousands) per second over the samples,
// given each sample's wall time in milliseconds.
func throughput(ss []sample, wallMS []float64) float64 {
	var recs int
	var total float64
	for i, s := range ss {
		recs += s.records
		total += wallMS[i]
	}
	return float64(recs) / total
}

// endToEnd computes the eight end-to-end metrics of an untraced pass.
func (r *result) endToEnd() map[string]float64 {
	fixed := r.steady[:min(fixedSteady, len(r.steady))]
	wall := scaled(r.steady, sample.wall)
	return map[string]float64{
		"setup_s":                  median(r.setupS),
		"recurrence_ms_p50":        median(wall),
		"recurrence_ms_p90":        percentile(wall, 0.9),
		"throughput_krec_s":        throughput(r.steady, wall),
		"alloc_mb_per_recurrence":  mean(over(r.steady, func(s sample) float64 { return float64(s.alloc) / 1e6 })),
		"mallocs_k_per_recurrence": mean(over(r.steady, func(s sample) float64 { return float64(s.mallocs) / 1e3 })),
		"live_heap_mb":             r.liveHeapMB,
		"virt_response_ms":         mean(over(fixed, func(s sample) float64 { return ms(s.virt) })),
	}
}

// endToEndOpts is the untraced, measured pass of one workload.
func endToEndOpts(seed int64, seconds float64) runOpts {
	return runOpts{
		seed: seed, setups: 3, warm: warmRecurrences, verify: true,
		steadyMin: minSteady, steadyFor: time.Duration(seconds * float64(time.Second)),
	}
}

// fixedOpts is an unverified pass of fixed length over a shared pool.
func fixedOpts(pl *pool, warm, steady int) runOpts {
	return runOpts{pool: pl, warm: warm, steadyMin: steady}
}

// pass is run with a failed recurrence turned into an error, for the
// auxiliary passes whose numbers mean nothing unless every output held.
func pass(w spec, o runOpts) (*result, error) {
	res, err := run(w, o)
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("%s: %d of %d recurrences failed: %s", w.name, res.failed, res.attempted, res.failure)
	}
	return res, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerRun produces every per-layer metric for workload w. It makes
// one traced, verified pass over w (spans + stage replay), one untraced
// pass of the same length for the tracing overhead, two passes of
// agg-lo-overlap at one and two executor workers, and seven passes of
// agg-hi-overlap with no (twice) and with each single sidecar. Pass
// lengths are fixed recurrence counts so the exact-count metrics repeat.
// With outDir set it also writes the Chrome trace and CPU/alloc profiles
// of the traced pass there.
func perLayerRun(w spec, seed int64, outDir string) (map[string]float64, *result, error) {
	stopProfile := func() error { return nil }
	if outDir != "" {
		var err error
		if stopProfile, err = startProfiles(outDir, w.name); err != nil {
			return nil, nil, err
		}
	}
	tr := newTracer()
	t0 := time.Now()
	wpl := newPool(w, seed)
	t1 := time.Now()
	tr.add("workload.generate", t0, t1, -1, -1)
	traced, err := pass(w, runOpts{pool: wpl, warm: warmRecurrences, steadyMin: traceSteady, verify: true, tr: tr})
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, nil, err
	}
	if outDir != "" {
		if err := tr.writeChrome(filepath.Join(outDir, w.name+".trace.json")); err != nil {
			return nil, nil, err
		}
	}

	n := float64(len(traced.steady))
	per := func(span string) float64 { return tr.totalMS(span, warmRecurrences) / n }
	avg := func(f func(sample) float64) float64 { return mean(over(traced.steady, f)) }
	m := map[string]float64{
		"workload.generate_ms_per_krec": ms(t1.Sub(t0)) / (float64(wpl.records) / 1e3),

		"packer.ingest_ms": per("packer.ingest"),
		"packer.flush_ms":  per("packer.flush"),
		"packer.alloc_kb":  float64(traced.replay.packerAlloc) / 1e3 / n,

		"dfs.write_ms":     per("dfs.write"),
		"dfs.read_ms":      per("dfs.read"),
		"dfs.bytes_read":   avg(func(s sample) float64 { return float64(s.stats.BytesRead) }),
		"dfs.total_mb_end": traced.dfsMB,
		"dfs.local_read_ratio": ratio(
			avg(func(s sample) float64 { return float64(s.stats.BytesReadLocal) }),
			avg(func(s sample) float64 { return float64(s.stats.BytesRead) })),

		"colfmt.encode_records_ms": per("colfmt.encode_records"),
		"colfmt.decode_records_ms": per("colfmt.decode_records"),
		"colfmt.encode_pairs_ms":   per("colfmt.encode_pairs"),
		"colfmt.decode_pairs_ms":   per("colfmt.decode_pairs"),
		"colfmt.pairs_mb":          float64(traced.replay.pairsBytes) / 1e6 / n,

		"mapreduce.map_prepare_ms":  per("mapreduce.map_prepare"),
		"mapreduce.map_commit_ms":   per("mapreduce.map_commit"),
		"mapreduce.map_merge_ms":    per("mapreduce.map_merge"),
		"mapreduce.reduce_ms":       per("mapreduce.reduce"),
		"mapreduce.group_ms":        per("mapreduce.group"),
		"mapreduce.replay_alloc_mb": float64(traced.replay.mrAlloc) / 1e6 / n,
		"mapreduce.map_tasks":       avg(func(s sample) float64 { return float64(s.stats.MapTasks) }),
		"mapreduce.reduce_tasks":    avg(func(s sample) float64 { return float64(s.stats.ReduceTasks) }),
		"mapreduce.bytes_shuffled":  avg(func(s sample) float64 { return float64(s.stats.BytesShuffled) }),
		"mapreduce.failed_attempts": avg(func(s sample) float64 { return float64(s.stats.FailedAttempts) }),

		"cache.pane_hit_ratio": ratio(
			avg(func(s sample) float64 { return float64(s.reusedPanes) }),
			avg(func(s sample) float64 { return float64(s.newPanes + s.reusedPanes) })),
		"cache.pair_hit_ratio": ratio(
			avg(func(s sample) float64 { return float64(s.reusedPairs) }),
			avg(func(s sample) float64 { return float64(s.newPairs + s.reusedPairs) })),
		"cache.bytes_read":      avg(func(s sample) float64 { return float64(s.stats.BytesCacheRead) }),
		"cache.recoveries":      avg(func(s sample) float64 { return float64(s.recoveries) }),
		"cache.resident_mb_end": traced.residentMB,
		"registry.add_ms":       per("registry.add"),
		"registry.get_ms":       per("registry.get"),

		"engine.ingest_ms":    per("engine.ingest"),
		"engine.run_ms":       per("engine.run"),
		"engine.cold_run_ms":  ms(traced.warm[0].run),
		"engine.output_pairs": avg(func(s sample) float64 { return float64(s.outputPairs) }),

		"virt.map_ms":     avg(func(s sample) float64 { return ms(s.stats.MapTime) }),
		"virt.shuffle_ms": avg(func(s sample) float64 { return ms(s.stats.ShuffleTime) }),
		"virt.reduce_ms":  avg(func(s sample) float64 { return ms(s.stats.ReduceTime) }),

		"gc.cycles":   avg(func(s sample) float64 { return float64(s.gcCycles) }),
		"gc.pause_ms": avg(func(s sample) float64 { return ms(s.gcPause) }),

		"trace.spans": float64(len(tr.spans)),
	}
	replayed := 0.0
	for _, name := range inRunNext {
		replayed += per(name)
	}
	m["engine.unattributed_ms"] = m["engine.run_ms"] - replayed
	mapHost := m["mapreduce.map_prepare_ms"] + m["mapreduce.map_commit_ms"] + m["mapreduce.map_merge_ms"]
	m["host_virt_ratio.map"] = ratio(mapHost, m["virt.map_ms"])
	m["host_virt_ratio.reduce"] = ratio(m["mapreduce.reduce_ms"], m["virt.reduce_ms"])
	m["parallel.serial_share"] = ratio(
		m["mapreduce.map_commit_ms"]+m["mapreduce.map_merge_ms"], mapHost+m["mapreduce.reduce_ms"])

	// Baseline, from the verified warm-up. Recurrence 0 is the cold start
	// of both systems and is left out of the comparisons.
	redoop, hadoop := traced.warm[1:], traced.base[1:]
	var baseHost, baseVirt []float64
	for _, b := range hadoop {
		baseHost = append(baseHost, ms(b.host))
		baseVirt = append(baseVirt, ms(b.virt))
	}
	m["baseline.run_ms_p50"] = median(baseHost)
	m["baseline.virt_response_ms"] = mean(baseVirt)
	m["host_speedup_x"] = ratio(median(baseHost), median(over(redoop, func(s sample) float64 { return ms(s.wall()) })))
	m["virt_speedup_x"] = ratio(mean(baseVirt), mean(over(redoop, func(s sample) float64 { return ms(s.virt) })))

	// Tracing overhead: the same pass without tracer and replay.
	runMS := func(r *result) float64 {
		return median(scaled(r.steady, func(s sample) time.Duration { return s.run }))
	}
	plain, err := pass(w, fixedOpts(wpl, warmRecurrences, traceSteady))
	if err != nil {
		return nil, nil, err
	}
	m["trace.overhead_pct"] = (ratio(runMS(traced), runMS(plain)) - 1) * 100
	m["engine.heap_growth_kb"] = plain.heapGrowthKB

	// Executor pool and sidecars, on the shared aggregation pool.
	pl := newPool(aggHi, seed)
	if m["parallel.speedup_x"], err = parallelSpeedup(pl); err != nil {
		return nil, nil, err
	}
	if err := sidecarCosts(pl, m); err != nil {
		return nil, nil, err
	}
	return m, traced, nil
}

// parallelSpeedup is agg-lo-overlap's throughput at two executor workers
// over its throughput at one.
func parallelSpeedup(pl *pool) (float64, error) {
	var tput [2]float64
	for i, w := range []spec{aggLo, aggLoW2} {
		res, err := pass(w, fixedOpts(pl, parWarm, parSteady))
		if err != nil {
			return 0, err
		}
		tput[i] = throughput(res.steady, scaled(res.steady, sample.wall))
	}
	return ratio(tput[1], tput[0]), nil
}

// sidecarCosts fills in sidecar.*: agg-hi-overlap with exactly one
// sidecar attached against the bare engine. The bare engine is measured
// before and after the five sidecars and averaged, because two bare
// passes differ by up to a millisecond between themselves.
func sidecarCosts(pl *pool, m map[string]float64) error {
	type cost struct{ p50, allocKB, growthKB float64 }
	costs := make([]cost, len(singleSidecars)+2)
	for i := range costs {
		w := aggHi
		if i > 0 && i <= len(singleSidecars) {
			w.sidecars = singleSidecars[i-1].attach
		}
		res, err := pass(w, fixedOpts(pl, warmRecurrences, sweepSteady))
		if err != nil {
			return err
		}
		costs[i] = cost{
			p50:      median(scaled(res.steady, sample.wall)),
			allocKB:  mean(over(res.steady, func(s sample) float64 { return float64(s.alloc) / 1e3 })),
			growthKB: res.heapGrowthKB,
		}
	}
	first, last := costs[0], costs[len(costs)-1]
	for i, sc := range singleSidecars {
		with := costs[i+1]
		m["sidecar."+sc.name+".overhead_ms"] = with.p50 - (first.p50+last.p50)/2
		m["sidecar."+sc.name+".alloc_kb"] = with.allocKB - (first.allocKB+last.allocKB)/2
		m["sidecar."+sc.name+".heap_growth_kb"] = with.growthKB - (first.growthKB+last.growthKB)/2
	}
	return nil
}

// startProfiles starts a CPU profile and returns the function that
// stops it and writes the allocation profile next to it.
func startProfiles(dir, name string) (func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		alloc, err := os.Create(filepath.Join(dir, name+".alloc.pprof"))
		if err != nil {
			return err
		}
		runtime.GC() // materialise the allocation statistics
		if err := pprof.Lookup("allocs").WriteTo(alloc, 0); err != nil {
			alloc.Close()
			return fmt.Errorf("alloc profile: %w", err)
		}
		return alloc.Close()
	}, nil
}
