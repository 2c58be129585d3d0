package experiments

import (
	"hash/fnv"
	"sort"
	"time"

	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/workload"
)

// Overlaps are the paper's three overlap settings.
var Overlaps = []float64{0.9, 0.5, 0.1}

// Fig6 regenerates Figure 6: the Q1 aggregation over the WCC dataset,
// Hadoop vs Redoop, per-window response times and shuffle/reduce
// totals at overlaps 0.9, 0.5 and 0.1.
func Fig6(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	return cfg.overlapPanels(&FigResult{Name: "Figure 6", Query: "Q1 aggregation (WCC)"}, Overlaps,
		func(overlap float64) runSpec { return cfg.aggSpec("q1", overlap) })
}

// measure runs spec on each system in turn, over identical input.
func (c Config) measure(spec runSpec, systems ...system) ([]Series, error) {
	var out []Series
	for _, sys := range systems {
		s, err := c.series(spec, sys)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// overlapPanels appends one Hadoop-vs-Redoop panel per overlap to res.
func (c Config) overlapPanels(res *FigResult, overlaps []float64, spec func(overlap float64) runSpec) (*FigResult, error) {
	for _, overlap := range overlaps {
		pair, err := c.measure(spec(overlap), hadoop("Hadoop"), redoop("Redoop"))
		if err != nil {
			return nil, err
		}
		res.Panels = append(res.Panels, Panel{Overlap: overlap, Series: pair})
	}
	return res, nil
}

// Fig7 regenerates Figure 7: the Q2 join over the FFG dataset with the
// same structure as Figure 6.
func Fig7(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	// The join is quadratic in pane pairs; a quarter of the
	// aggregation volume keeps the window-1 cross product (all K²
	// pane pairs) tractable while preserving the phase ratios.
	cfg.RecordsPerWindow /= 4
	return cfg.overlapPanels(&FigResult{Name: "Figure 7", Query: "Q2 join (FFG)"}, Overlaps,
		func(overlap float64) runSpec { return cfg.joinSpec("q2", overlap) })
}

// Fig8 regenerates Figure 8: adaptive input partitioning under the
// paper's periodic load fluctuation (windows 1, 4, 7, 10 normal, the
// rest doubled), comparing Hadoop, non-adaptive Redoop and adaptive
// Redoop at the three overlaps.
//
// Adaptivity only matters when executions approach the slide deadline
// (§3.3), so this experiment uses a compressed window scale where the
// doubled load genuinely threatens the deadline, as on the paper's
// loaded testbed.
func Fig8(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	// Adaptivity matters only when executions are commensurate with
	// the slide deadline (§3.3). Each panel first probes the query at
	// the base cluster speed, then slows the cluster so Redoop's
	// steady-state execution costs ~55% of the slide deadline: normal load is
	// sustainable, the doubled windows overrun the deadline, and the
	// best-effort proactive mode has genuine slack to exploit — the
	// regime the paper's Figure 8 exercises.
	cfg.WindowDur = 10 * simtime.Minute
	cfg.RecordsPerWindow /= 2
	res := &FigResult{Name: "Figure 8", Query: "Q1 aggregation (WCC), fluctuating load"}
	for _, overlap := range Overlaps {
		slide := cfg.SlideFor(overlap)
		spec := cfg.aggSpec("q1f", overlap)

		// Calibration: slow the cluster until non-adaptive Redoop's
		// steady-state response is ~60% of the slide. The per-task
		// overhead saturates at the real ~0.8 s Hadoop launch cost, a
		// non-linearity the loop corrects by re-probing at the scaled
		// speed until the target holds.
		panelCfg := cfg
		target := 0.6 * float64(slide)
		probeSpec := spec
		probeSpec.windows = 3
		for pass := 0; pass < 4; pass++ {
			probe, err := panelCfg.series(probeSpec, redoop("probe"))
			if err != nil {
				return nil, err
			}
			norm := probe.Windows[2].Response
			if norm <= 0 {
				norm = time.Millisecond
			}
			ratio := target / float64(norm)
			if ratio > 0.8 && ratio < 1.25 {
				break // close enough
			}
			slow := panelCfg.Cost
			slow.DiskReadBps /= ratio
			slow.DiskWriteBps /= ratio
			slow.NetBps /= ratio
			slow.MapCPUBps /= ratio
			slow.ReduceCPUBps /= ratio
			slow.SortBps /= ratio
			overhead := time.Duration(float64(slow.TaskOverhead) * ratio)
			if overhead > 800*time.Millisecond {
				overhead = 800 * time.Millisecond // real Hadoop task launch
			}
			slow.TaskOverhead = overhead
			panelCfg.Cost = slow
		}

		// The fluctuation schedule is indexed by slide: every pane
		// inside one slide interval carries that slide's multiplier.
		fluct := workload.PaperFluctuation(int((cfg.WindowDur + slide - 1) / slide))
		spec.rate = func(start int64) float64 { return fluct(int(start / int64(slide))) }
		series, err := panelCfg.measure(spec, hadoop("Hadoop"), redoop("Redoop"))
		if err != nil {
			return nil, err
		}
		spec.adaptive = true
		adaptive, err := panelCfg.series(spec, redoop("Adaptive Redoop"))
		if err != nil {
			return nil, err
		}
		res.Panels = append(res.Panels, Panel{Overlap: overlap, Series: append(series, adaptive)})
	}
	return res, nil
}

// fig9FaultPlan injects the task failures of §6.4's (f) runs: the
// first attempt of one in five map tasks fails (the work a lost node's
// in-flight tasks would re-execute), and every job's first reduce
// partition loses its first attempt, forcing a re-shuffle.
type fig9FaultPlan struct{}

// MapAttemptFails implements mapreduce.FaultPlan.
func (fig9FaultPlan) MapAttemptFails(jobName, splitID string, attempt int) bool {
	if attempt > 0 {
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(splitID))
	return h.Sum32()%5 == 0
}

// ReduceAttemptFails implements mapreduce.FaultPlan.
func (fig9FaultPlan) ReduceAttemptFails(_ string, part, attempt int) bool {
	return part == 0 && attempt == 0
}

// dropCaches deletes `count` cached entries (deterministically chosen,
// rotating with the window index) from the cluster's local file
// systems — the pane-granular cache loss of §6.4, which Redoop repairs
// by re-executing only the affected panes' tasks.
func dropCaches(mr *mapreduce.Engine, window, count int) {
	type loc struct {
		node int
		key  string
	}
	var all []loc
	for _, n := range mr.Cluster.Nodes() {
		for _, k := range n.LocalKeys("cache/") {
			all = append(all, loc{node: n.ID, key: k})
		}
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].node < all[j].node
	})
	for i := 0; i < count; i++ {
		l := all[(window*13+i*7)%len(all)]
		mr.Cluster.Node(l.node).DeleteLocal(l.key)
	}
}

// Fig9 regenerates Figure 9: fault tolerance under cache loss. An
// aggregation over FFG data at overlap 0.5 runs in four variants:
// Hadoop and Redoop clean, and Hadoop(f)/Redoop(f) with failures
// injected at the beginning of each window — a task failure for both,
// plus the loss of one node's caches for Redoop(f). The paper plots
// cumulative running time; Format prints both per-window and
// cumulative columns.
func Fig9(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	const overlap = 0.5
	ffg := workload.DefaultFFG(cfg.Seed)
	spec := cfg.aggSpec("q9", overlap)
	spec.gen = func(_ int, start, end int64, n int) []records.Record {
		return workload.FFGReadings(ffg, start, end, n)
	}
	wccAgg := spec.query
	spec.query = func() *core.Query {
		q := wccAgg()
		q.Maps = []mapreduce.MapFunc{sensorCountMap}
		return q
	}

	clean, err := cfg.measure(spec, hadoop("Hadoop"), redoop("Redoop"))
	if err != nil {
		return nil, err
	}

	hf := hadoop("Hadoop(f)")
	hf.tune = func(mr *mapreduce.Engine) { mr.Faults = fig9FaultPlan{} }
	hadoopF, err := cfg.series(spec, hf)
	if err != nil {
		return nil, err
	}

	// Redoop's failure mode is cache loss (§6.4 "we focus on cache
	// failure where the cached data is lost from a given node");
	// Hadoop, having no caches, suffers the equivalent failures as
	// task re-executions instead.
	rf := redoop("Redoop(f)")
	rf.before = func(r int, mr *mapreduce.Engine) {
		// Cache removal injected at the beginning of each window.
		dropCaches(mr, r, 4)
	}
	redoopF, err := cfg.series(spec, rf)
	if err != nil {
		return nil, err
	}

	return &FigResult{
		Name:  "Figure 9",
		Query: "aggregation (FFG), overlap 0.5, cache-failure injection",
		Panels: []Panel{{
			Overlap: overlap,
			Series:  []Series{clean[0], hadoopF, clean[1], redoopF},
		}},
	}, nil
}

// sensorCountMap keys an FFG reading by its sensor id (field 0), so
// the Q1 reducers count readings per sensor — the FFG-flavoured
// aggregation §6.4 uses as middle ground.
func sensorCountMap(_ int64, payload []byte, emit mapreduce.Emitter) {
	i := 0
	for i < len(payload) && payload[i] != ',' {
		i++
	}
	emit.Emit(payload[:i], []byte("1"))
}

// Headline computes the paper's headline claim — "up to 9× speedup
// over plain Hadoop" — as the best steady-state speedup observed
// across the Figure 6 and Figure 7 panels.
func Headline(fig6, fig7 *FigResult) float64 {
	best := 0.0
	for _, fig := range []*FigResult{fig6, fig7} {
		if fig == nil {
			continue
		}
		for _, p := range fig.Panels {
			h, ok1 := p.Find("Hadoop")
			r, ok2 := p.Find("Redoop")
			if !ok1 || !ok2 {
				continue
			}
			if s := Speedup(h, r, 2); s > best {
				best = s
			}
		}
	}
	return best
}
