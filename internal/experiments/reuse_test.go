package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"redoop/internal/chaos"
	"redoop/internal/mapreduce"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
)

func reuseTestConfig() Config {
	return Config{
		Workers:          6,
		MapSlots:         4,
		ReduceSlots:      2,
		BlockSize:        16 << 10,
		Windows:          5,
		WindowDur:        60 * simtime.Minute,
		RecordsPerWindow: 6000,
		Reducers:         4,
		Seed:             7,
	}
}

// TestCrossQueryReuse is the tentpole acceptance check: the two
// identical Figure-6 aggregations over one shared stream compute each
// shared pane exactly once (the sibling runs zero map tasks), the
// tumbling roll-up composes its panes from the finer ones, and every
// query's window outputs are byte-identical with the index on or off
// — all under the differential oracle.
func TestCrossQueryReuse(t *testing.T) {
	cfg := reuseTestConfig()
	cfg.OracleCheck = true
	off, err := RunCrossQueryReuse(cfg, false)
	if err != nil {
		t.Fatalf("reuse off: %v", err)
	}
	on, err := RunCrossQueryReuse(cfg, true)
	if err != nil {
		t.Fatalf("reuse on: %v", err)
	}
	if off.Index != nil {
		t.Errorf("reuse-off run reported index stats: %+v", off.Index)
	}
	for i := range off.Queries {
		o, n := off.Queries[i], on.Queries[i]
		if o.Query != n.Query {
			t.Fatalf("query order diverged: %q vs %q", o.Query, n.Query)
		}
		if o.OutputDigest != n.OutputDigest {
			t.Errorf("%s: output digest diverged: off=%s on=%s", o.Query, o.OutputDigest, n.OutputDigest)
		}
		if o.Windows != cfg.Windows || n.Windows != cfg.Windows {
			t.Errorf("%s: windows off=%d on=%d, want %d", o.Query, o.Windows, n.Windows, cfg.Windows)
		}
	}
	// The identical-geometry sibling must never map: every one of its
	// panes is satisfied from fig6-a's published routs.
	if n := on.Queries[1].MapTasks; n != 0 {
		t.Errorf("sibling %s ran %d map tasks with reuse on, want 0", on.Queries[1].Query, n)
	}
	if on.Queries[1].CrossQueryHits == 0 {
		t.Errorf("sibling %s recorded no cross-query hits", on.Queries[1].Query)
	}
	if on.Queries[1].CrossSavedNS <= 0 {
		t.Errorf("sibling %s saved nothing cross-query: %d", on.Queries[1].Query, on.Queries[1].CrossSavedNS)
	}
	// The roll-up composes all but its first window via subsumption.
	if on.Queries[2].CrossQueryHits == 0 {
		t.Errorf("roll-up %s recorded no cross-query hits", on.Queries[2].Query)
	}
	if on.Index == nil {
		t.Fatal("reuse-on run reported no index stats")
	}
	if on.Index.ExactHits == 0 || on.Index.SubsumHits == 0 {
		t.Errorf("index stats missing hit kinds: %+v", on.Index)
	}
	if onTotal, offTotal := on.TotalMapTasks(), off.TotalMapTasks(); onTotal >= offTotal {
		t.Errorf("reuse did not reduce total map tasks: on=%d off=%d", onTotal, offTotal)
	}
}

// TestCrossQueryReuseFigure exercises the figure wrapper, which
// re-asserts digest equality and the sibling's zero map tasks before
// emitting panels.
func TestCrossQueryReuseFigure(t *testing.T) {
	cfg := reuseTestConfig()
	res, err := CrossQueryReuse(cfg)
	if err != nil {
		t.Fatalf("CrossQueryReuse: %v", err)
	}
	if len(res.Panels) != 1 || len(res.Panels[0].Series) != 6 {
		t.Fatalf("want 1 panel with 6 series (3 queries x on/off), got %+v", res.Panels)
	}
}

// TestReuseIndexWorkersDeterminism: the reuse index is populated and
// probed only at serial commit points, so its end-of-run snapshot —
// and every per-query stat — must be identical between a fully serial
// run and a parallel one.
func TestReuseIndexWorkersDeterminism(t *testing.T) {
	run := func(workers int) *ReuseReport {
		cfg := reuseTestConfig()
		cfg.ExecWorkers = workers
		rep, err := RunCrossQueryReuse(cfg, true)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep
	}
	w1, w4 := run(1), run(4)
	if !reflect.DeepEqual(w1.Snapshot, w4.Snapshot) {
		t.Errorf("index snapshots diverge between -workers 1 and 4:\nw1=%+v\nw4=%+v", w1.Snapshot, w4.Snapshot)
	}
	if !reflect.DeepEqual(w1.Queries, w4.Queries) {
		t.Errorf("per-query stats diverge between -workers 1 and 4:\nw1=%+v\nw4=%+v", w1.Queries, w4.Queries)
	}
	if !reflect.DeepEqual(w1.Index, w4.Index) {
		t.Errorf("index stats diverge: w1=%+v w4=%+v", w1.Index, w4.Index)
	}
}

// TestChaosReuseSoak extends the chaos soak to cross-query reuse: per
// seed, the shared-stream workload runs under the mixed fault storm
// with the oracle checking every window, reuse off then on, and every
// query's outputs must be byte-identical between the two variants.
// The join leg attaches a reuse index to the join soak regime —
// joins are reuse-ineligible, so the index must not perturb them.
func TestChaosReuseSoak(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		t.Run(fmt.Sprintf("seed%d/agg", seed), func(t *testing.T) {
			cfg := soakConfig(seed)
			cfg.OracleCheck = true
			sched, err := chaos.Generate(seed, chaos.ProfileMixed, cfg.Windows, cfg.Workers)
			if err != nil {
				t.Fatalf("generate schedule: %v", err)
			}
			cfg.Chaos = sched
			off, err := RunCrossQueryReuse(cfg, false)
			if err != nil {
				t.Fatalf("reuse off under %s: %v", sched, err)
			}
			on, err := RunCrossQueryReuse(cfg, true)
			if err != nil {
				t.Fatalf("reuse on under %s: %v", sched, err)
			}
			for i := range off.Queries {
				if off.Queries[i].OutputDigest != on.Queries[i].OutputDigest {
					t.Errorf("%s: outputs diverge between reuse off/on under chaos", off.Queries[i].Query)
				}
			}
		})
		t.Run(fmt.Sprintf("seed%d/join", seed), func(t *testing.T) {
			cfg := soakConfig(seed)
			sched, err := chaos.Generate(seed, chaos.ProfileMixed, cfg.Windows, cfg.Workers)
			if err != nil {
				t.Fatalf("generate schedule: %v", err)
			}
			cfg.Chaos = sched
			cfg.Reuse = reuse.NewIndex(0)
			verdicts, err := cfg.RunChaosRegime("join")
			if err != nil {
				t.Fatalf("join with reuse index under %s: %v", sched, err)
			}
			for _, v := range verdicts {
				if !v.OK() {
					t.Errorf("window %d: match=%v violations=%v", v.Recurrence+1, v.Match, v.Violations)
				}
			}
			if s := cfg.Reuse.Stats(); s.Entries != 0 || s.Published != 0 {
				t.Errorf("join published into the reuse index: %+v", s)
			}
		})
	}
}

// TestCrossQueryReuseReportsEngineFailure: an engine failure must
// surface as an error naming the query and window. The loop this
// replaced formatted its message from the nil result RunNext returns
// alongside an error, so any failure became a nil-pointer panic.
func TestCrossQueryReuseReportsEngineFailure(t *testing.T) {
	failAll := func(_ int, mr *mapreduce.Engine) {
		for _, id := range mr.Cluster.NodeIDs() {
			mr.Cluster.FailNode(id)
		}
	}
	_, err := reuseTestConfig().withDefaults().crossQueryReuse(true, failAll)
	if err == nil {
		t.Fatal("a run on a cluster with every node failed reported success")
	}
	// The 2x tumbling roll-up's first window closes before fig6-a's.
	if !strings.HasPrefix(err.Error(), "rollup-2x window 1:") {
		t.Errorf("error %q does not name the failing query and window", err)
	}
}
