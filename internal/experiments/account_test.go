package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"redoop/internal/account"
	"redoop/internal/chaos"
	"redoop/internal/simtime"
)

// ledgerSoakSeeds is the fixed seed sweep of the conservation soak: a
// breadth-first sample of chaos storms (node crashes, cache drops,
// batch delays, stragglers) rather than a single lucky schedule.
var ledgerSoakSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// TestChaosLedgerConservation drives the agg and join regimes through
// eight distinct chaos storms with a cost ledger attached. The oracle's
// accounting pass runs after every window (slot compute ≤ cluster busy
// time, residencies reconcile with controller signatures), and the test
// re-checks the ledger's terminal state: compute and occupancy were
// actually metered, and no residency leaked past retirement.
func TestChaosLedgerConservation(t *testing.T) {
	for _, seed := range ledgerSoakSeeds {
		for _, regime := range []string{"agg", "join"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, regime), func(t *testing.T) {
				cfg := soakConfig(seed)
				cfg.Windows = 4
				sched, err := chaos.Generate(seed, chaos.ProfileMixed, cfg.Windows, cfg.Workers)
				if err != nil {
					t.Fatalf("generate schedule: %v", err)
				}
				cfg.Chaos = sched
				cfg.Account = account.New()
				verdicts, err := cfg.RunChaosRegime(regime)
				if err != nil {
					t.Fatalf("%s under %s: %v", regime, sched, err)
				}
				for _, v := range verdicts {
					if !v.OK() {
						t.Errorf("window %d: match=%v violations=%v", v.Recurrence+1, v.Match, v.Violations)
					}
				}
				snaps := cfg.Account.Snapshot()
				if len(snaps) != 1 {
					t.Fatalf("ledger tracked %d queries, want 1", len(snaps))
				}
				s := snaps[0]
				if s.TotalComputeNS <= 0 {
					t.Errorf("no compute metered for %s", s.Query)
				}
				if s.CacheByteSeconds <= 0 {
					t.Errorf("no cache occupancy metered for %s", s.Query)
				}
				if s.CacheRegistered != s.CacheExpired+s.OpenResidencies {
					t.Errorf("residency leak: registered %d != expired %d + open %d",
						s.CacheRegistered, s.CacheExpired, s.OpenResidencies)
				}
			})
		}
	}
}

// TestLedgerSerialParallelIdentical extends the two-phase determinism
// contract to cost attribution: every ledger field — phase durations,
// IO bytes, byte·seconds, recompute savings, ROI — must be
// byte-identical whether the engine computes with one worker or a wide
// pool, because all metering happens in serial commit paths.
func TestLedgerSerialParallelIdentical(t *testing.T) {
	run := func(workers int, mkSpec func(Config) runSpec) []account.QueryCosts {
		cfg := detConfig()
		cfg.RecordsPerWindow /= 4
		cfg.ExecWorkers = workers
		cfg.Account = account.New()
		if _, err := cfg.series(mkSpec(cfg), redoop("det")); err != nil {
			t.Fatal(err)
		}
		return cfg.Account.Snapshot()
	}
	for _, tc := range []struct {
		name string
		spec func(Config) runSpec
	}{
		{"aggregation", func(c Config) runSpec { return aggSpec(c, 0.9) }},
		{"join", func(c Config) runSpec { return joinSpec(c, 0.5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := run(1, tc.spec)
			par := run(parWorkers(), tc.spec)
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("cost snapshots diverge across worker counts:\nserial:   %+v\nparallel: %+v", serial, par)
			}
			if len(serial) != 1 || serial[0].TotalComputeNS == 0 {
				t.Fatalf("degenerate snapshot: %+v", serial)
			}
		})
	}
}

// TestLedgerExpiredResidenciesStopAccruing is the no-double-count
// property under chaos: after a run whose schedule dropped cache
// partitions and crashed nodes mid-recurrence, advancing virtual time
// must grow byte·seconds by exactly (still-open bytes) × Δt — an
// expired or chaos-lost residency that kept accruing would show up as
// excess growth.
func TestLedgerExpiredResidenciesStopAccruing(t *testing.T) {
	cfg := soakConfig(2)
	cfg.Windows = 4
	sched, err := chaos.Generate(2, chaos.ProfileMixed, cfg.Windows, cfg.Workers)
	if err != nil {
		t.Fatalf("generate schedule: %v", err)
	}
	var drops, crashes int
	for _, a := range sched.Actions {
		switch a.Kind {
		case chaos.CacheDrop:
			drops++
		case chaos.NodeCrash:
			crashes++
		}
	}
	if drops == 0 || crashes == 0 {
		t.Fatalf("schedule exercises neither loss path (drops=%d crashes=%d): %s", drops, crashes, sched)
	}
	cfg.Chaos = sched
	acct := account.New()
	cfg.Account = acct
	if _, err := cfg.RunChaosRegime("agg"); err != nil {
		t.Fatalf("agg under %s: %v", sched, err)
	}

	snaps := acct.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("ledger tracked %d queries, want 1", len(snaps))
	}
	query := snaps[0].Query
	var openBytes int64
	for _, r := range acct.OpenResidencies() {
		openBytes += r.Bytes
	}

	// Two advances past the run: the delta between them isolates open
	// residencies' accrual from whatever partial interval preceded t1.
	t1 := simtime.Time(1) << 50
	const deltaSec = 1000
	t2 := t1.Add(deltaSec * simtime.Second)
	acct.Advance(t1)
	bs1 := acct.ByteSeconds(query)
	acct.Advance(t2)
	bs2 := acct.ByteSeconds(query)

	want := float64(openBytes) * deltaSec
	got := bs2 - bs1
	if math.Abs(got-want) > 1e-6*math.Max(want, 1) {
		t.Fatalf("byte·seconds grew by %g over %ds but %d bytes are open (want %g): an expired residency is still accruing",
			got, deltaSec, openBytes, want)
	}
}
