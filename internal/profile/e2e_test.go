package profile_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"redoop/internal/account"
	"redoop/internal/chaos"
	"redoop/internal/experiments"
	"redoop/internal/obs"
	"redoop/internal/profile"
	"redoop/internal/simtime"
)

// profCfg is the fixed small-scale shape of one profiled run: big
// enough for multi-wave maps and real cache reuse across the 0.75
// window overlap, small enough for test-suite time. The cost ledger is
// attached so the oracle checks its conservation after every window.
func profCfg(seed int64) experiments.Config {
	return experiments.Config{
		Workers:          6,
		MapSlots:         4,
		ReduceSlots:      2,
		BlockSize:        16 << 10,
		Windows:          5,
		WindowDur:        60 * simtime.Minute,
		RecordsPerWindow: 4000,
		Reducers:         4,
		Seed:             seed,
		Obs:              obs.New(),
		Account:          account.New(),
	}
}

// TestProfileRealRun analyzes a clean oracle-checked aggregation run:
// every recurrence's critical path must tile its measured wall-clock
// exactly, the cost ledger must show cache benefit, and the
// report and critical-path overlay exporters must produce non-trivial
// output.
func TestProfileRealRun(t *testing.T) {
	cfg := profCfg(42)
	if _, err := cfg.RunChaosRegime("agg"); err != nil {
		t.Fatalf("run: %v", err)
	}
	p := profile.Analyze(cfg.Obs.Events())
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if len(p.Recurrences) != cfg.Windows {
		t.Fatalf("got %d recurrences, want %d", len(p.Recurrences), cfg.Windows)
	}
	for _, rec := range p.Recurrences {
		if rec.Wall <= 0 {
			t.Fatalf("recurrence %d has non-positive wall %v", rec.Index, rec.Wall)
		}
		if rec.CritTask <= 0 {
			t.Fatalf("recurrence %d has no task time on its critical path", rec.Index)
		}
		if len(rec.Phases) == 0 || rec.Tasks == 0 {
			t.Fatalf("recurrence %d has no attributed tasks", rec.Index)
		}
	}
	// With 75% window overlap, every window after the first reuses
	// cached panes; the cost ledger must show strictly positive savings.
	q := p.Recurrences[0].Query
	saved := func(qc account.QueryCosts) bool { return qc.Query == q && qc.SavedNS > 0 }
	if !slices.ContainsFunc(cfg.Account.Snapshot(), saved) {
		t.Fatalf("query %s saved nothing, want > 0 ns", q)
	}

	var report bytes.Buffer
	if err := p.Text(&report, 5); err != nil {
		t.Fatalf("Text: %v", err)
	}
	for _, want := range []string{"critical path", "top 5 critical-path segments"} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, report.String())
		}
	}
	var overlay bytes.Buffer
	if err := p.WriteCritPathTrace(&overlay); err != nil {
		t.Fatalf("WriteCritPathTrace: %v", err)
	}
	if !strings.Contains(overlay.String(), `"critical-path:`) {
		t.Fatalf("critical-path overlay looks empty:\n%.400s", overlay.String())
	}
}

// TestLedgerInvariantChaosSoak sweeps eight chaos seeds through the
// aggregation and join regimes: whatever the fault storm does —
// crashes, cache drops, stragglers, delayed batches — every pane
// served from cache must still save time (the cost ledger's
// conservation check, run by the oracle after every window, fails the
// run when a load exceeds its recompute) and every critical path must
// still tile its recurrence exactly.
func TestLedgerInvariantChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, regime := range []string{"agg", "join"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, regime), func(t *testing.T) {
				cfg := profCfg(100 + seed)
				sched, err := chaos.Generate(seed, chaos.ProfileMixed, cfg.Windows, cfg.Workers)
				if err != nil {
					t.Fatalf("generate schedule: %v", err)
				}
				cfg.Chaos = sched
				if _, err := cfg.RunChaosRegime(regime); err != nil {
					t.Fatalf("%s under %s: %v", regime, sched, err)
				}
				p := profile.Analyze(cfg.Obs.Events())
				if err := p.CheckInvariants(); err != nil {
					t.Errorf("seed %d %s: %v", seed, regime, err)
				}
				if len(p.Recurrences) != cfg.Windows {
					t.Errorf("seed %d %s: %d recurrences, want %d",
						seed, regime, len(p.Recurrences), cfg.Windows)
				}
			})
		}
	}
}
