// Benchmarks regenerating every measured artifact of the paper's
// evaluation (one benchmark per figure, §6) plus micro-benchmarks of
// the core mechanisms. Figure benchmarks run a reduced configuration
// per iteration and report the headline comparison as custom metrics:
//
//	speedup-0.9 / speedup-0.5 / speedup-0.1   Redoop vs Hadoop per overlap panel
//	adaptive-0.9 / ...                        adaptive Redoop vs Hadoop (Figure 8)
//	ms-*                                      measured virtual times
//
// The reduced benchmark scale weighs fixed per-task overheads more
// heavily than the full-size experiments do (most visibly for the join
// at low overlap), so the canonical numbers are the full-size runs:
// `go run ./cmd/redoop-bench` regenerates those and prints the
// complete per-window tables; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package redoop

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/forecast"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
	"redoop/internal/workload"
)

// benchConfig is a reduced-size figure configuration so one benchmark
// iteration stays in the seconds range.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Windows = 6
	cfg.RecordsPerWindow = 60000
	return cfg
}

func reportPanels(b *testing.B, res *experiments.FigResult, redoopName string) {
	b.Helper()
	for _, p := range res.Panels {
		h, ok1 := p.Find("Hadoop")
		r, ok2 := p.Find(redoopName)
		if !ok1 || !ok2 {
			continue
		}
		b.ReportMetric(experiments.Speedup(h, r, 2), fmt.Sprintf("speedup-%.1f", p.Overlap))
		b.ReportMetric(float64(r.MeanResponse(2))/1e6, fmt.Sprintf("ms-redoop-%.1f", p.Overlap))
		b.ReportMetric(float64(h.MeanResponse(2))/1e6, fmt.Sprintf("ms-hadoop-%.1f", p.Overlap))
	}
}

// BenchmarkFig6Aggregation regenerates Figure 6: the Q1 aggregation
// over WCC data, Hadoop vs Redoop at overlaps 0.9/0.5/0.1 (both the
// response-time and the shuffle/reduce panels derive from the same
// run).
func BenchmarkFig6Aggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportPanels(b, res, "Redoop")
		}
	}
}

// BenchmarkFig7Join regenerates Figure 7: the Q2 join over FFG data.
func BenchmarkFig7Join(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportPanels(b, res, "Redoop")
		}
	}
}

// BenchmarkFig8Adaptive regenerates Figure 8: adaptive input
// partitioning under the paper's periodic load fluctuation.
func BenchmarkFig8Adaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range res.Panels {
				h, _ := p.Find("Hadoop")
				r, _ := p.Find("Redoop")
				a, _ := p.Find("Adaptive Redoop")
				b.ReportMetric(experiments.Speedup(h, r, 2), fmt.Sprintf("redoop-%.1f", p.Overlap))
				b.ReportMetric(experiments.Speedup(h, a, 2), fmt.Sprintf("adaptive-%.1f", p.Overlap))
			}
		}
	}
}

// BenchmarkFig9FaultTolerance regenerates Figure 9: cumulative running
// time with per-window failure injection.
func BenchmarkFig9FaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(res.Panels) == 1 {
			for _, s := range res.Panels[0].Series {
				b.ReportMetric(float64(s.TotalResponse())/1e6, "cum-ms-"+s.System)
			}
		}
	}
}

// BenchmarkHeadlineSpeedup computes the paper's headline number ("up
// to 9x over plain Hadoop") from Figures 6 and 7.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		f6, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f7, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(experiments.Headline(f6, f7), "best-speedup-x")
		}
	}
}

// benchFig6AtWorkers runs Figure 6 with the engine compute pool fixed
// at the given width. The virtual results are identical across widths
// by construction; only the wall-clock ns/op differs, so comparing
// BenchmarkFig6Workers1 against BenchmarkFig6WorkersMax measures the
// parallel execution layer's real speedup on this host.
func benchFig6AtWorkers(b *testing.B, workers int) {
	cfg := benchConfig()
	cfg.ExecWorkers = workers
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportPanels(b, res, "Redoop")
		}
	}
}

// BenchmarkFig6Workers1 is the serial-execution baseline for the
// parallel speedup comparison.
func BenchmarkFig6Workers1(b *testing.B) { benchFig6AtWorkers(b, 1) }

// BenchmarkFig6WorkersMax runs the same workload with a GOMAXPROCS-wide
// compute pool; ns/op relative to BenchmarkFig6Workers1 is the measured
// parallel speedup (≈1x on a single-core host).
func BenchmarkFig6WorkersMax(b *testing.B) { benchFig6AtWorkers(b, 0) }

// --- Micro-benchmarks of the mechanisms the figures exercise ---

// BenchmarkMapReduceJob measures one complete plain job on the
// simulated cluster (real map/reduce execution over 16k records).
func BenchmarkMapReduceJob(b *testing.B) {
	wcc := workload.DefaultWCC(1)
	recs := workload.WCC(wcc, 0, int64(time.Hour), 16000)
	data := colfmt.EncodeRecords(recs)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := experiments.Default()
		mr := cfg.NewRuntime(int64(i))
		if err := mr.DFS.Write("/in", data); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		job := &mapreduce.Job{
			Name:   "bench",
			Inputs: []string{"/in"},
			Map: func(_ int64, payload []byte, emit mapreduce.Emitter) {
				emit.Emit(append([]byte(nil), payload...), []byte("1"))
			},
			Reduce: func(key []byte, values [][]byte, emit mapreduce.Emitter) {
				emit.Emit(key, []byte(fmt.Sprintf("%d", len(values))))
			},
			NumReducers: 8,
		}
		if _, err := mr.Run(job, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPanePacking measures the Dynamic Data Packer's ingest+flush
// path.
func BenchmarkPanePacking(b *testing.B) {
	wcc := workload.DefaultWCC(2)
	spec := window.NewTimeSpec(time.Hour, 10*time.Minute)
	recs := workload.WCC(wcc, 0, int64(time.Hour), 60000)
	plan := core.PartitionPlan{PaneUnit: spec.PaneUnit(), FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := experiments.Default()
		mr := cfg.NewRuntime(int64(i))
		pk, err := core.NewPacker(mr.DFS, "S1", "/bench", window.FrameOf(spec), plan)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := pk.Ingest(recs); err != nil {
			b.Fatal(err)
		}
		if err := pk.FlushThrough(int64(time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatusMatrix measures the cache status matrix's update,
// lifespan-exhaustion and shift operations at a realistic window size.
func BenchmarkStatusMatrix(b *testing.B) {
	f := window.FrameOf(window.NewTimeSpec(time.Hour, 6*time.Minute)) // 10 panes/window
	for i := 0; i < b.N; i++ {
		m, err := core.NewStatusMatrix([]window.Frame{f, f})
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			lo, hi := f.WindowRange(r)
			for p1 := lo; p1 <= hi; p1++ {
				for p2 := lo; p2 <= hi; p2++ {
					if done, _ := m.Done(p1, p2); !done {
						m.Update(p1, p2)
					}
				}
			}
			m.Shift(r + 1)
		}
	}
}

// BenchmarkHoltForecast measures the profiler's smoothing update and
// forecast.
func BenchmarkHoltForecast(b *testing.B) {
	h, err := forecast.NewHolt(0.5, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		h.Observe(float64(100 + i%17))
		_ = h.Forecast(1)
	}
}

// joinHiOverlap is the Figure-7 headline case at the geometry of the
// host-time benchmark's join-hi-overlap workload: Q2 over a 60-minute
// window sliding by 6 minutes (overlap 0.9, ten panes per source), 3000
// readings and 750 events per pane, 20 reducers, the default cluster,
// one executor worker.
// Each recurrence joins the 19 new pane pairs and assembles the window
// from them plus 81 cached pair outputs.
type joinHiOverlap struct {
	eng  *core.Engine
	ffg  workload.FFGConfig
	pane int64
	fed  int64 // panes ingested so far
}

// newJoinHiOverlap builds the engine and runs it into steady state:
// past the first full window and the first expiries.
func newJoinHiOverlap(tb testing.TB) *joinHiOverlap {
	tb.Helper()
	q := queries.FFGJoin("q2", 60*simtime.Minute, 6*simtime.Minute, 20)
	cfg := experiments.Default()
	cfg.ExecWorkers = 1
	eng, err := core.NewEngine(core.Config{MR: cfg.NewRuntime(1), Query: q})
	if err != nil {
		tb.Fatal(err)
	}
	j := &joinHiOverlap{eng: eng, ffg: workload.DefaultFFG(42), pane: q.Spec().PaneUnit()}
	for r := 0; r < 12; r++ {
		j.step(tb, j.slide())
	}
	return j
}

// slide generates the batches the next recurrence is waiting for — ten
// panes per source before the first window, one after.
func (j *joinHiOverlap) slide() [][2][]records.Record {
	var out [][2][]records.Record
	for p := j.fed; p*j.pane < j.eng.Frames()[0].WindowClose(j.eng.NextRecurrence()); p++ {
		out = append(out, [2][]records.Record{
			workload.FFGReadings(j.ffg, p*j.pane, (p+1)*j.pane, 3000),
			workload.FFGEvents(j.ffg, p*j.pane, (p+1)*j.pane, 750),
		})
	}
	return out
}

// step is the measured operation: ingest the slide, run the recurrence.
func (j *joinHiOverlap) step(tb testing.TB, slide [][2][]records.Record) *core.RecurrenceResult {
	for _, batches := range slide {
		for src, recs := range batches {
			if err := j.eng.Ingest(src, recs); err != nil {
				tb.Fatal(err)
			}
		}
		j.fed++
	}
	res, err := j.eng.RunNext()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkJoinHiOverlapRecurrence measures one steady recurrence of
// the high-overlap join on the host: ns/op, B/op and allocs/op of
// ingest + RunNext, with input generation outside the timer.
func BenchmarkJoinHiOverlapRecurrence(b *testing.B) {
	j := newJoinHiOverlap(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		slide := j.slide()
		b.StartTimer()
		if res := j.step(b, slide); res.ReusedPairs != 81 || res.NewPairs != 19 {
			b.Fatalf("recurrence reused %d and joined %d pane pairs, want 81 and 19", res.ReusedPairs, res.NewPairs)
		}
	}
}

// TestJoinWindowAssemblyAllocs guards the cache read path's allocation
// budget: a steady high-overlap join recurrence allocates less than
// four times the bytes of the pair headers it returns (one allocation
// for the output, the rest for mapping and joining the new panes).
// Re-copying cached results on the way to the output costs ~15x.
func TestJoinWindowAssemblyAllocs(t *testing.T) {
	j := newJoinHiOverlap(t)
	var alloc, headers uint64
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		slide := j.slide()
		runtime.ReadMemStats(&before)
		res := j.step(t, slide)
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		headers += uint64(len(res.Output)) * uint64(unsafe.Sizeof(records.Pair{}))
	}
	if headers == 0 {
		t.Fatal("join produced no output")
	}
	if ratio := float64(alloc) / float64(headers); ratio >= 4 {
		t.Errorf("steady join recurrences allocate %.1fx their output's pair headers (%d MB for %d MB), want < 4x",
			ratio, alloc>>20, headers>>20)
	} else {
		t.Logf("steady join recurrences allocate %.2fx their output's pair headers", ratio)
	}
}

// BenchmarkGroupPairs measures the sort/group stage over 10k
// intermediate pairs.
func BenchmarkGroupPairs(b *testing.B) {
	base := make([]records.Pair, 10000)
	for i := range base {
		base[i] = records.Pair{
			Key:   []byte(fmt.Sprintf("key%04d", i%512)),
			Value: []byte("v"),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := append([]records.Pair(nil), base...)
		if got := mapreduce.GroupPairs(pairs); len(got) != 512 {
			b.Fatalf("grouped to %d keys", len(got))
		}
	}
}

// BenchmarkPairEncoding measures the cache serialization round trip.
func BenchmarkPairEncoding(b *testing.B) {
	pairs := make([]records.Pair, 5000)
	for i := range pairs {
		pairs[i] = records.Pair{
			Key:   []byte(fmt.Sprintf("sensor%03d", i%200)),
			Value: []byte("12.34,56.78,90.12"),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := colfmt.EncodePairs(pairs)
		dec, err := colfmt.DecodePairs(enc)
		if err != nil || len(dec) != len(pairs) {
			b.Fatal("round trip failed")
		}
	}
}

// BenchmarkObsDisabled measures the instrumentation call sites with no
// observer configured — nil receivers all the way down. This is the
// price every un-instrumented run pays for the observability layer and
// must stay at roughly a nil check per call (and zero allocations).
func BenchmarkObsDisabled(b *testing.B) {
	var o *obs.Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Counter("redoop_map_tasks_total").Inc()
		o.Counter("redoop_shuffle_bytes_total", obs.L("locality", "local")).Add(128)
		o.Histogram("redoop_map_task_seconds").Observe(0.5)
		o.Span("node:1", "map", "map S1P1", 0, 1)
	}
}

// BenchmarkObsEnabled measures the same call sites with a live
// observer, for comparison against BenchmarkObsDisabled.
func BenchmarkObsEnabled(b *testing.B) {
	o := obs.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Counter("redoop_map_tasks_total").Inc()
		o.Counter("redoop_shuffle_bytes_total", obs.L("locality", "local")).Add(128)
		o.Histogram("redoop_map_task_seconds").Observe(0.5)
	}
}

// BenchmarkObsCounterHot measures the registry-bypassing fast path: a
// pre-resolved counter handle under repeated increments.
func BenchmarkObsCounterHot(b *testing.B) {
	c := obs.NewRegistry().Counter("redoop_map_tasks_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkAblationCaching isolates window-aware caching: Hadoop vs
// pane-shaped-but-uncached Redoop vs full Redoop (Q1, overlap 0.9).
func BenchmarkAblationCaching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationCaching(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			p := res.Panels[0]
			h, _ := p.Find("Hadoop")
			nr, _ := p.Find("Redoop (no cache reuse)")
			full, _ := p.Find("Redoop")
			b.ReportMetric(experiments.Speedup(h, nr, 2), "no-reuse-x")
			b.ReportMetric(experiments.Speedup(h, full, 2), "full-x")
		}
	}
}

// BenchmarkAblationScheduling isolates Equation 4's cache-aware
// placement on the cache-read-heavy join.
func BenchmarkAblationScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationScheduling(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			p := res.Panels[0]
			obl, _ := p.Find("Redoop (cache-oblivious)")
			full, _ := p.Find("Redoop")
			b.ReportMetric(experiments.Speedup(obl, full, 2), "eq4-gain-x")
		}
	}
}

// BenchmarkOverlapSweep charts Q1 speedup across a fine overlap sweep
// (an extension beyond the paper's three settings).
func BenchmarkOverlapSweep(b *testing.B) {
	cfg := benchConfig()
	cfg.Windows = 4
	for i := 0; i < b.N; i++ {
		res, err := experiments.OverlapSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range res.Panels {
				h, _ := p.Find("Hadoop")
				r, _ := p.Find("Redoop")
				b.ReportMetric(experiments.Speedup(h, r, 2), fmt.Sprintf("x-at-%.1f", p.Overlap))
			}
		}
	}
}

// BenchmarkMultiQuerySharing measures k queries over one stream with
// and without shared-source packing (the Shuffle metric carries DFS
// bytes read in this figure).
func BenchmarkMultiQuerySharing(b *testing.B) {
	cfg := benchConfig()
	cfg.Windows = 4
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiQuerySharing(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range res.Panels {
				for _, s := range p.Series {
					b.ReportMetric(float64(s.TotalShuffle())/1e6, fmt.Sprintf("readMB-%s", strings.ReplaceAll(s.System, " ", "-")))
				}
			}
		}
	}
}
