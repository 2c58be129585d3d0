package experiments

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/chaos"
	"redoop/internal/simtime"
)

// soakConfig is the fixed small-scale shape of one soak run: big
// enough for multi-wave maps, shared pane files and several panes of
// window overlap, small enough that a full regime sweep stays in
// test-suite time.
func soakConfig(seed int64) Config {
	return Config{
		Workers:          6,
		MapSlots:         4,
		ReduceSlots:      2,
		BlockSize:        16 << 10,
		Windows:          6,
		WindowDur:        60 * simtime.Minute,
		RecordsPerWindow: 6000,
		Reducers:         4,
		Seed:             100 + seed,
	}
}

// soakSeeds returns the chaos seeds to sweep: the CI matrix passes one
// seed per job via REDOOP_CHAOS_SEEDS (comma-separated); a plain
// `go test` run covers a short fixed subset.
func soakSeeds(t *testing.T) []int64 {
	env := os.Getenv("REDOOP_CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 5}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("REDOOP_CHAOS_SEEDS: bad seed %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestChaosSoak drives every regime (agg, join, adaptive, speculative,
// shared-hub, join-hetero) through a deterministic fault storm with the differential oracle
// checking every window: byte-identical results vs baseline
// recomputation and zero structural-invariant violations, or the test
// fails with the first divergence. Reproduce any CI failure locally
// with REDOOP_CHAOS_SEEDS=<seed> go test -race -run TestChaosSoak ./internal/experiments
func TestChaosSoak(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		for _, regime := range ChaosRegimes {
			t.Run(fmt.Sprintf("seed%d/%s", seed, regime), func(t *testing.T) {
				cfg := soakConfig(seed)
				sched, err := chaos.Generate(seed, ProfileForRegime(regime), cfg.Windows, cfg.Workers)
				if err != nil {
					t.Fatalf("generate schedule: %v", err)
				}
				cfg.Chaos = sched
				verdicts, err := cfg.RunChaosRegime(regime)
				if err != nil {
					t.Fatalf("%s under %s: %v", regime, sched, err)
				}
				lanes := 1 // a verdict per query per window: the shared hub runs the reuse trio
				if regime == "shared-hub" {
					lanes = len(reuseWorkloadQueries(cfg, cfg.SlideFor(0.75)))
				}
				if len(verdicts) != lanes*cfg.Windows {
					t.Fatalf("got %d verdicts for %d windows of %d lanes", len(verdicts), cfg.Windows, lanes)
				}
				for _, v := range verdicts {
					if !v.OK() {
						t.Errorf("window %d: match=%v violations=%v", v.Recurrence+1, v.Match, v.Violations)
					}
				}
			})
		}
	}
}

// TestChaosReplayDeterminism: a chaos run is fully replayable — the
// same seed through the same regime yields identical verdicts, pair
// counts included. This is what makes a CI matrix failure a local
// repro rather than a flake report.
func TestChaosReplayDeterminism(t *testing.T) {
	runOnce := func() []int {
		cfg := soakConfig(2)
		sched, err := chaos.Generate(2, chaos.ProfileMixed, cfg.Windows, cfg.Workers)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		cfg.Chaos = sched
		verdicts, err := cfg.RunChaosRegime("agg")
		if err != nil {
			t.Fatalf("agg under %s: %v", sched, err)
		}
		var pairs []int
		for _, v := range verdicts {
			if !v.OK() {
				t.Fatalf("window %d failed: %+v", v.Recurrence+1, v)
			}
			pairs = append(pairs, v.EnginePairs)
		}
		return pairs
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two replays of the same schedule produced different outputs:\n%v\n%v", a, b)
	}
}

// TestChaosCorruptProfile verifies the corrupt profile end to end: the
// injector mangles already-mapped in-window pane files, and because
// reduce-input caches cover the overlap region, the engine never
// re-reads the damaged bytes — every window still verifies.
func TestChaosCorruptProfile(t *testing.T) {
	cfg := soakConfig(3)
	sched, err := chaos.Generate(3, chaos.ProfileCorrupt, cfg.Windows, cfg.Workers)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(sched.Actions) == 0 {
		t.Fatalf("corrupt profile generated no actions")
	}
	cfg.Chaos = sched
	if _, err := cfg.RunChaosRegime("agg"); err != nil {
		t.Fatalf("agg under %s: %v", sched, err)
	}
	if _, err := cfg.RunChaosRegime("join"); err != nil {
		t.Fatalf("join under %s: %v", sched, err)
	}
}
