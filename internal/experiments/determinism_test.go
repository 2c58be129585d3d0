package experiments

// The serial-vs-parallel determinism harness: every workload shape the
// suite exercises — plain aggregation, join, jitter + stragglers,
// speculative execution, fault injection — must produce byte-identical
// outputs, equal virtual end times, and equal Stats whether the engine
// computes with one worker or a wide pool. This is the contract that
// makes Engine.Workers a pure wall-clock knob.

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
)

// windowCapture is one recurrence's full observable outcome.
type windowCapture struct {
	Output      []byte
	CompletedAt simtime.Time
	Stats       mapreduce.Stats
}

func detConfig() Config {
	cfg := Default()
	cfg.Windows = 4
	cfg.RecordsPerWindow = 40000
	return cfg
}

func aggSpec(cfg Config, overlap float64) runSpec  { return cfg.aggSpec("q1d", overlap) }
func joinSpec(cfg Config, overlap float64) runSpec { return cfg.joinSpec("q2d", overlap) }

// capture runs spec on sys through the run driver and records each
// window's output bytes, virtual completion time, and Stats.
func capture(t *testing.T, cfg Config, spec runSpec, sys system) []windowCapture {
	t.Helper()
	var caps []windowCapture
	_, err := cfg.runOne(spec, sys, func(res *core.RecurrenceResult) {
		caps = append(caps, windowCapture{
			Output:      records.EncodePairs(res.Output),
			CompletedAt: res.CompletedAt,
			Stats:       res.Stats,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return caps
}

func assertCapturesEqual(t *testing.T, name string, serial, par []windowCapture) {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%s: window counts diverge: %d vs %d", name, len(serial), len(par))
	}
	for i := range serial {
		if !bytes.Equal(serial[i].Output, par[i].Output) {
			t.Errorf("%s window %d: outputs diverge (%d vs %d bytes)",
				name, i+1, len(serial[i].Output), len(par[i].Output))
		}
		if serial[i].CompletedAt != par[i].CompletedAt {
			t.Errorf("%s window %d: virtual end times diverge: %v vs %v",
				name, i+1, serial[i].CompletedAt, par[i].CompletedAt)
		}
		if !reflect.DeepEqual(serial[i].Stats, par[i].Stats) {
			t.Errorf("%s window %d: stats diverge:\nserial:   %+v\nparallel: %+v",
				name, i+1, serial[i].Stats, par[i].Stats)
		}
	}
}

func parWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	return w
}

// jitterize gives a system non-trivial, seeded duration noise plus
// stragglers — the regime where accounting-order mistakes would show
// up as timeline divergence.
func jitterize(speculative bool) func(Config, system) system {
	return func(c Config, sys system) system {
		sys.tune = func(mr *mapreduce.Engine) {
			mr.Jitter = 0.3
			mr.StragglerProb = 0.08
			mr.StragglerFactor = 6
			mr.JitterSeed = c.Seed
			mr.Speculative = speculative
		}
		return sys
	}
}

func TestSerialParallelDeterminism(t *testing.T) {
	base := detConfig()
	joinCfg := base
	joinCfg.RecordsPerWindow /= 4
	agg := func(overlap float64) func(Config) runSpec {
		return func(c Config) runSpec { return aggSpec(c, overlap) }
	}
	cases := []struct {
		name string
		cfg  Config
		spec func(Config) runSpec
		sys  func(Config, system) system // nil: the system as is
	}{
		{"aggregation", base, agg(0.9), nil},
		{"join", joinCfg, func(c Config) runSpec { return joinSpec(c, 0.5) }, nil},
		{"jitter-stragglers", base, agg(0.9), jitterize(false)},
		{"speculative", base, agg(0.9), jitterize(true)},
		{"fault-injection", base, agg(0.5), func(_ Config, sys system) system {
			sys.tune = func(mr *mapreduce.Engine) { mr.Faults = fig9FaultPlan{} }
			sys.before = func(r int, mr *mapreduce.Engine) { dropCaches(mr, r, 4) }
			return sys
		}},
		{"adaptive-proactive", base, func(c Config) runSpec {
			s := aggSpec(c, 0.9)
			s.adaptive = true
			return s
		}, nil},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serialCfg := tc.cfg
			serialCfg.ExecWorkers = 1
			parCfg := tc.cfg
			parCfg.ExecWorkers = parWorkers()

			for _, sys := range []system{redoop("redoop"), hadoop("hadoop")} {
				if tc.sys != nil {
					sys = tc.sys(tc.cfg, sys)
				}
				serial := capture(t, serialCfg, tc.spec(serialCfg), sys)
				par := capture(t, parCfg, tc.spec(parCfg), sys)
				assertCapturesEqual(t, tc.name+"/"+sys.name, serial, par)
			}
		})
	}
}

// ParallelSpeedup's virtual-equality flag must hold on the bench
// workload itself (small scale here; the CLI runs it full-size).
func TestParallelSpeedupVirtualEqual(t *testing.T) {
	cfg := detConfig()
	cfg.Windows = 2
	cfg.RecordsPerWindow = 20000
	res, err := cfg.ParallelSpeedup(parWorkers())
	if err != nil {
		t.Fatal(err)
	}
	if !res.VirtualEqual {
		t.Error("serial and parallel runs must produce identical virtual series")
	}
	if res.Workers != parWorkers() {
		t.Errorf("Workers = %d, want %d", res.Workers, parWorkers())
	}
}
