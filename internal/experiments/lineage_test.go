package experiments

// Provenance-store determinism and oracle-audit tests: the lineage
// store must be byte-identical between a fully serial and a wide
// parallel run (its writes happen only on serial commit paths), and
// the oracle's lineage audit must actually catch a derivation whose
// recorded SHA does not match a recompute from its claimed inputs.

import (
	"reflect"
	"strings"
	"testing"

	"redoop/internal/core"
	"redoop/internal/lineage"
	"redoop/internal/oracle"
)

// runRedoopLineage drives the Redoop engine over spec with a fresh
// provenance store attached and returns the store's final snapshot.
func runRedoopLineage(t *testing.T, cfg Config, spec runSpec) lineage.Snapshot {
	t.Helper()
	cfg.Lineage = lineage.New(0)
	if _, err := cfg.series(spec, redoop("redoop")); err != nil {
		t.Fatal(err)
	}
	return cfg.Lineage.Snapshot()
}

// TestLineageWorkersDeepEqual asserts the whole provenance store —
// derivations, batches, attempts, file events, watermark — is
// DeepEqual between ExecWorkers=1 and a wide pool, for both figure
// workloads. Any lineage write reachable from a parallel compute path
// would break this.
func TestLineageWorkersDeepEqual(t *testing.T) {
	base := detConfig()
	base.Windows = 3
	base.RecordsPerWindow = 16000
	cases := []struct {
		name string
		spec func(Config) runSpec
		cfg  func() Config
	}{
		{
			name: "aggregation",
			spec: func(c Config) runSpec { return aggSpec(c, 0.9) },
			cfg:  func() Config { return base },
		},
		{
			name: "join",
			spec: func(c Config) runSpec { return joinSpec(c, 0.5) },
			cfg: func() Config {
				c := base
				c.RecordsPerWindow /= 4
				return c
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			serialCfg := cfg
			serialCfg.ExecWorkers = 1
			parCfg := cfg
			parCfg.ExecWorkers = parWorkers()

			serial := runRedoopLineage(t, serialCfg, tc.spec(serialCfg))
			par := runRedoopLineage(t, parCfg, tc.spec(parCfg))
			if serial.Stats.Nodes == 0 {
				t.Fatal("provenance store stayed empty — lineage is not wired")
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("lineage snapshots diverge between workers=1 and workers=%d:\nserial stats:   %+v\nparallel stats: %+v",
					parWorkers(), serial.Stats, par.Stats)
			}
		})
	}
}

// TestLineageAuditCatchesBadSHA proves the oracle's sampled derivation
// audit is non-vacuous: a clean run passes every verdict, and
// poisoning the newest pane derivation's recorded SHA before the final
// Check produces a lineage violation.
func TestLineageAuditCatchesBadSHA(t *testing.T) {
	base := detConfig()
	base.Windows = 3
	base.RecordsPerWindow = 16000
	t.Run("aggregation", func(t *testing.T) {
		auditCatchesBadSHA(t, base, aggSpec(base, 0.9), "pane-rout")
	})
	t.Run("join", func(t *testing.T) {
		cfg := base
		cfg.RecordsPerWindow /= 4
		auditCatchesBadSHA(t, cfg, joinSpec(cfg, 0.5), "pane-rin")
	})
}

func auditCatchesBadSHA(t *testing.T, cfg Config, spec runSpec, kind string) {
	t.Helper()
	lin := lineage.New(0)
	mr := cfg.NewRuntime(1)
	q := spec.query()
	eng, err := core.NewEngine(core.Config{MR: mr, Query: q, Lineage: lin})
	if err != nil {
		t.Fatal(err)
	}
	ora, err := oracle.New(eng)
	if err != nil {
		t.Fatal(err)
	}
	ingest := ora.WrapIngest(eng.Ingest)
	feed := cfg.paneFeed(spec)
	for r := 0; r < spec.windows; r++ {
		if err := feed(eng.Frames()[0].WindowClose(r), ingest); err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunNext()
		if err != nil {
			t.Fatalf("redoop window %d: %v", r+1, err)
		}
		last := r == spec.windows-1
		if last {
			poisonNewestDerivation(t, lin, eng.AccountName(), kind)
		}
		v := ora.Check(res)
		if last {
			found := false
			for _, viol := range v.Violations {
				if strings.Contains(viol, "lineage:") && strings.Contains(viol, "hash") {
					found = true
				}
			}
			if !found {
				t.Fatalf("poisoned SHA went undetected; violations: %v", v.Violations)
			}
		} else if err := v.Err(); err != nil {
			t.Fatalf("clean window %d failed the oracle: %v", r+1, err)
		}
	}
}

// poisonNewestDerivation rewrites the newest unexpired derivation of
// the audited kind with a SHA that cannot match any recompute.
func poisonNewestDerivation(t *testing.T, lin *lineage.Store, query, kind string) {
	t.Helper()
	snap := lin.Snapshot()
	for i := len(snap.Derivations) - 1; i >= 0; i-- {
		d := snap.Derivations[i]
		if d.Kind != kind || d.Expired || d.Query != query {
			continue
		}
		d.SHA = lineage.SHA([]byte("poison"))
		lin.RecordDerivation(d)
		return
	}
	t.Fatalf("no unexpired %s derivation to poison", kind)
}
