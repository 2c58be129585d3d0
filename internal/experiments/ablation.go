package experiments

import (
	"fmt"

	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/simtime"
)

// The ablation experiments isolate the design choices DESIGN.md calls
// out: how much of Redoop's win comes from window-aware caching versus
// merely pane-shaped execution, and from cache-aware task placement
// (Equation 4) versus slot-availability placement. They extend the
// paper's evaluation — the paper reports only end-to-end comparisons.

// AblationCaching compares, at overlap 0.9 on the Q1 aggregation:
// plain Hadoop, Redoop with cache reuse disabled (pane-shaped
// execution but every pane reprocessed), and full Redoop. The gap
// between the last two is the value of window-aware caching itself.
func AblationCaching(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	return cfg.ablation("Ablation A", "window-aware caching (Q1, overlap 0.9)", cfg.aggSpec("q1a", 0.9),
		hadoop("Hadoop"),
		system{name: "Redoop (no cache reuse)", seedShift: 3, disableReuse: true},
		redoop("Redoop"))
}

// AblationScheduling compares, at overlap 0.9 on the Q2 join (whose
// pane-pair tasks are cache-read heavy), full Redoop against Redoop
// with cache-oblivious task placement: Equation 4's C_task term
// disabled, so pair tasks land wherever a slot frees first and pull
// their caches across the network.
func AblationScheduling(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	cfg.RecordsPerWindow /= 4 // join volume, as in Fig7
	return cfg.ablation("Ablation B", "cache-aware scheduling, Eq. 4 (Q2, overlap 0.9)", cfg.joinSpec("q2a", 0.9),
		system{name: "Redoop (cache-oblivious)", seedShift: 3, cacheOblivious: true},
		redoop("Redoop"))
}

// ablation is a one-panel figure: spec measured on each system.
func (c Config) ablation(name, query string, spec runSpec, systems ...system) (*FigResult, error) {
	series, err := c.measure(spec, systems...)
	if err != nil {
		return nil, err
	}
	return &FigResult{Name: name, Query: query, Panels: []Panel{{Overlap: spec.overlap, Series: series}}}, nil
}

// OverlapSweep extends the paper's three overlap settings to a finer
// sweep, charting how the Q1 speedup scales with the shared-data
// fraction.
func OverlapSweep(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	return cfg.overlapPanels(&FigResult{Name: "Overlap sweep", Query: "Q1 aggregation speedup vs overlap"},
		[]float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1},
		func(overlap float64) runSpec { return cfg.aggSpec("q1s", overlap) })
}

// AblationSpeculation measures the configuration choice of §6.1
// ("speculative execution was turned off so to boost performance"):
// each system runs with and without speculative map backups on a
// cluster with straggler-prone task durations. The trade-off is
// slot-occupancy-dependent: backups are nearly free when slots sit
// idle (Redoop's small steady-state waves) and compete with real work
// when the cluster is saturated (Hadoop's full-window re-runs) — which
// is what the four series let one measure.
func AblationSpeculation(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	stragglers := func(sys system, speculative bool) system {
		sys.tune = func(mr *mapreduce.Engine) {
			mr.Jitter = 0.3
			mr.StragglerProb = 0.08
			mr.StragglerFactor = 6
			mr.JitterSeed = cfg.Seed
			mr.Speculative = speculative
		}
		return sys
	}
	return cfg.ablation("Ablation C", "speculative execution under stragglers (Q1, overlap 0.9)", cfg.aggSpec("q1sp", 0.9),
		stragglers(system{name: "Hadoop", seedShift: 4, baseline: true}, false),
		stragglers(system{name: "Hadoop (speculative)", seedShift: 4, baseline: true}, true),
		stragglers(system{name: "Redoop", seedShift: 5}, false),
		stragglers(system{name: "Redoop (speculative)", seedShift: 5}, true))
}

// MultiQuerySharing measures the multi-query Semantic Analyzer end to
// end (§3.1): k recurring aggregations with different window sizes
// over one WCC stream, run twice — each query packing and mapping the
// stream privately, versus all of them consuming one shared source
// (one set of pane files, group-claimed reduce-input caches). The
// series report each variant's total DFS read volume as it scales
// with k.
func MultiQuerySharing(cfg Config) (*FigResult, error) {
	cfg = cfg.withDefaults()
	// The one WCC stream every query consumes. Windows are slide
	// multiples, so the stream's pane is the slide.
	stream := cfg.aggSpec("spec", 0.9)
	slide := cfg.SlideFor(0.9)

	mkQuery := func(i int, shared bool) *core.Query {
		// Window sizes spread across slide multiples.
		win := slide * simtime.Duration(2+i%9)
		q := queries.WCCAggregation(fmt.Sprintf("mq%d", i), win, slide, cfg.Reducers)
		if shared {
			q.Sources[0].CacheKey = "wcc"
		}
		return q
	}

	run := func(k int, shared bool, name string) (Series, error) {
		mr := cfg.NewRuntime(6)
		ctrl := core.NewController()
		hub := core.NewSourceHub(mr.DFS, mr.DFS.BlockSize())
		hub.SetObserver(cfg.Obs)
		if shared {
			if err := hub.Share("wcc", "wcc", stream.query().Sources[0].Spec, 0); err != nil {
				return Series{}, err
			}
		}
		lanes := make([]lane, k)
		for i := range lanes {
			eng, err := core.NewEngine(core.Config{MR: mr, Query: mkQuery(i, shared), Controller: ctrl, Hub: hub})
			if err != nil {
				return Series{}, err
			}
			cfg.notifyEngine(eng)
			lanes[i] = redoopLane(eng.Query().Name, eng)
		}
		sink := func(_ int, batch []records.Record) error { return hub.Ingest("wcc", batch) }
		if !shared {
			sink = func(src int, batch []records.Record) error {
				for _, l := range lanes {
					if err := l.ingest(src, batch); err != nil {
						return err
					}
				}
				return nil
			}
		}
		wts := make([]WindowTiming, cfg.Windows)
		for r := range wts {
			wts[r].Window = r + 1
		}
		err := cfg.run(drive{
			mr:      mr,
			lanes:   lanes,
			windows: cfg.Windows,
			sink:    sink,
			feed:    cfg.paneFeed(stream),
			window: func(_ int, res *core.RecurrenceResult) {
				wt := &wts[res.Recurrence]
				wt.Response += res.ResponseTime
				// Reuse the Shuffle column for read volume (ms fields
				// carry bytes/1e6 here; Format prints raw series, the
				// caller interprets).
				wt.Shuffle += simtime.Duration(res.Stats.BytesRead)
				wt.Reduce += simtime.Duration(res.Stats.BytesShuffled)
			},
		})
		return Series{System: name, Windows: wts}, err
	}

	res := &FigResult{
		Name:  "Multi-query sharing",
		Query: "k aggregations over one WCC stream; shuffle column = DFS bytes read (scaled), reduce column = shuffled bytes",
	}
	for _, k := range []int{1, 2, 4, 8} {
		private, err := run(k, false, fmt.Sprintf("%d private", k))
		if err != nil {
			return nil, err
		}
		shared, err := run(k, true, fmt.Sprintf("%d shared", k))
		if err != nil {
			return nil, err
		}
		res.Panels = append(res.Panels, Panel{
			Overlap: float64(k),
			Series:  []Series{private, shared},
		})
	}
	return res, nil
}
