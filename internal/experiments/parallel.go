package experiments

import (
	"fmt"
	"reflect"
	"time"
)

// ParallelSpeedupResult reports the host wall-clock comparison of the
// same Figure-6-scale workload executed serially (ExecWorkers=1) and
// with a parallel compute pool. Virtual results are identical by
// construction; VirtualEqual verifies it end to end.
type ParallelSpeedupResult struct {
	// Workers is the parallel pool width measured against serial.
	Workers int
	// SerialWall / ParallelWall are host (real) elapsed times.
	SerialWall   time.Duration
	ParallelWall time.Duration
	// Speedup is SerialWall / ParallelWall.
	Speedup float64
	// VirtualEqual is true when both modes produced identical
	// per-window virtual timings for every series.
	VirtualEqual bool
	// Series are the parallel run's measurements (identical to the
	// serial run's when VirtualEqual).
	Series []Series
}

// ParallelSpeedup runs the Figure-6 overlap-0.9 aggregation workload
// (Hadoop + Redoop series) — the heaviest steady-state map volume of
// the paper's figures, and the benchmark the ≥2× parallel speedup
// acceptance target is measured on — twice: ExecWorkers=1, then
// ExecWorkers=workers. It reports the wall-clock ratio plus a
// virtual-equality check.
func (c Config) ParallelSpeedup(workers int) (*ParallelSpeedupResult, error) {
	c = c.withDefaults()
	if workers <= 0 {
		workers = 4
	}
	run := func(execWorkers int) ([]Series, time.Duration, error) {
		cfg := c
		cfg.ExecWorkers = execWorkers
		start := time.Now()
		pair, err := cfg.measure(cfg.aggSpec("q1p", 0.9), hadoop("Hadoop"), redoop("Redoop"))
		return pair, time.Since(start), err
	}

	serialSeries, serialWall, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("serial run: %w", err)
	}
	parSeries, parWall, err := run(workers)
	if err != nil {
		return nil, fmt.Errorf("parallel run: %w", err)
	}

	res := &ParallelSpeedupResult{
		Workers:      workers,
		SerialWall:   serialWall,
		ParallelWall: parWall,
		VirtualEqual: reflect.DeepEqual(serialSeries, parSeries),
		Series:       parSeries,
	}
	if parWall > 0 {
		res.Speedup = float64(serialWall) / float64(parWall)
	}
	return res, nil
}
