package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"redoop/internal/account"
	"redoop/internal/chaos"
	"redoop/internal/core"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
)

// evictLimit is a per-node cache budget small enough that the steady
// state of the high-overlap aggregation workload cannot hold every
// unexpired reduce-input cache, so cost-based replacement must fire.
const evictLimit = 24 << 10

// evictions returns the replacement decisions o's tracer retains — the
// record of evictions — in execution order.
func evictions(o *obs.Observer) []eventlog.CacheData {
	var out []eventlog.CacheData
	for _, d := range o.Decisions() {
		if d.Type == eventlog.CacheEvict {
			out = append(out, d.Data.(eventlog.CacheData))
		}
	}
	return out
}

// TestEvictionFiresAndStaysCorrect pins the replacement tier's
// end-to-end contract on the aggregation workload: with a tight disk
// limit evictions actually happen, every evicted cache is rebuilt on
// demand through the §5 ladder (the oracle byte-checks every window
// against independent recomputation), and the tracer records each
// victim as a cache.evict decision of its recurrence, which the metrics
// exposition counts. (No CLI flag sets a disk limit, so no golden
// exposition shows redoop_cache_evictions_total; this run is where it
// is pinned.)
func TestEvictionFiresAndStaysCorrect(t *testing.T) {
	cfg := detConfig()
	cfg.RecordsPerWindow /= 4
	cfg.Account = account.New()
	cfg.Obs = obs.New()
	cfg.CacheDiskLimit = evictLimit
	cfg.OracleCheck = true
	if _, err := cfg.series(aggSpec(cfg, 0.9), redoop("evict")); err != nil {
		t.Fatal(err)
	}
	log := evictions(cfg.Obs)
	if len(log) == 0 {
		t.Fatalf("disk limit %d never triggered an eviction — the replacement tier is dead code at this scale", evictLimit)
	}
	for _, d := range log {
		if d.Bytes <= 0 || d.PID == "" || d.CacheType != core.ReduceInput.String() ||
			d.Recurrence < 0 || d.Recurrence >= cfg.Windows {
			t.Fatalf("malformed eviction decision %+v", d)
		}
	}
	if got := cfg.Obs.Exposition().Sum("redoop_cache_evictions_total"); got != float64(len(log)) {
		t.Errorf("exposition counts %v evictions, the record holds %d", got, len(log))
	}
}

// TestEvictionLogSerialParallelIdentical extends the two-phase
// determinism contract to replacement decisions: the eviction sequence
// — victims, order, recurrences, bytes — must be identical whether the
// engine computes with one worker or a wide pool, because every
// decision runs in RunNext's serial tail over ledger state that is
// itself worker-invariant.
func TestEvictionLogSerialParallelIdentical(t *testing.T) {
	run := func(workers int) ([]eventlog.CacheData, []account.QueryCosts) {
		cfg := detConfig()
		cfg.RecordsPerWindow /= 4
		cfg.ExecWorkers = workers
		cfg.Account = account.New()
		cfg.Obs = obs.New()
		cfg.CacheDiskLimit = evictLimit
		cfg.OracleCheck = true
		if _, err := cfg.series(aggSpec(cfg, 0.9), redoop("det")); err != nil {
			t.Fatal(err)
		}
		return evictions(cfg.Obs), cfg.Account.Snapshot()
	}
	serialLog, serialCosts := run(1)
	parLog, parCosts := run(parWorkers())
	if len(serialLog) == 0 {
		t.Fatal("no evictions fired; the determinism check is vacuous")
	}
	if !reflect.DeepEqual(serialLog, parLog) {
		t.Errorf("eviction decisions diverge across worker counts:\nserial:   %v\nparallel: %v", serialLog, parLog)
	}
	if !reflect.DeepEqual(serialCosts, parCosts) {
		t.Errorf("cost snapshots diverge under eviction:\nserial:   %+v\nparallel: %+v", serialCosts, parCosts)
	}
}

// TestEvictionUnderChaos replays the seed-matrix fault storms with the
// disk limit engaged: cache drops, node crashes and pane corruption
// compose with policy evictions, and every window must still verify
// against the oracle. The same schedule replayed twice must make the
// same decisions — CI failures stay local repros.
func TestEvictionUnderChaos(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runOnce := func() []eventlog.CacheData {
				cfg := soakConfig(seed)
				cfg.Windows = 4
				sched, err := chaos.Generate(seed, chaos.ProfileMixed, cfg.Windows, cfg.Workers)
				if err != nil {
					t.Fatalf("generate schedule: %v", err)
				}
				cfg.Chaos = sched
				cfg.Account = account.New()
				cfg.Obs = obs.New()
				cfg.CacheDiskLimit = evictLimit
				verdicts, err := cfg.RunChaosRegime("agg")
				if err != nil {
					t.Fatalf("agg under %s: %v", sched, err)
				}
				for _, v := range verdicts {
					if !v.OK() {
						t.Errorf("window %d: match=%v violations=%v", v.Recurrence+1, v.Match, v.Violations)
					}
				}
				return evictions(cfg.Obs)
			}
			a, b := runOnce(), runOnce()
			if len(a) == 0 {
				t.Fatal("no evictions under this schedule; the replay check is vacuous")
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("replayed schedule made different eviction decisions:\n%v\n%v", a, b)
			}
		})
	}
}
