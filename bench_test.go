// Host-time reference points of the root package. Host time is
// measured in one place, the benchmark module (benchmark/, driven by
// benchmark/run.sh), with noise-aware pairs per layer; every figure's
// virtual numbers are bench-trajectory/FIGS.json's. What stays here is
// the Figure 6 run at a serial compute pool, the whole-figure s/op the
// ROADMAP quotes, and the allocation budget of the high-overlap join's
// window assembly.
package redoop

import (
	"runtime"
	"testing"
	"unsafe"

	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/workload"
)

// BenchmarkFig6Workers1 regenerates Figure 6 (the Q1 aggregation at
// overlaps 0.9, 0.5 and 0.1) at a reduced scale — six windows of 60 000
// records — on a serial compute pool.
func BenchmarkFig6Workers1(b *testing.B) {
	cfg := experiments.Default()
	cfg.Windows = 6
	cfg.RecordsPerWindow = 60000
	cfg.ExecWorkers = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
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
