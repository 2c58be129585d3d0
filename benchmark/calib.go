package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
)

// The sandbox this benchmark runs on is a shared host: for tens of
// seconds at a time, memory-bound code runs 10-35% slower, compute-bound
// code about 5%. Recurrences are both, so between runs of the same
// binary their median moved by up to 20% (quartile distance over ten
// runs), which no bound below the allowed 25% survives.
//
// To keep the host out of the numbers a fixed kernel with a similar mix
// — dependent loads that always miss the caches, plus a sort — is timed
// just before every operation, and each operation's wall time is divided
// by how much slower than calibRef the kernel ran around it. Over 5 s
// blocks of agg-hi-overlap the kernel's time correlates 0.92 with the
// engine's; dividing by it cuts the block-to-block deviation from 2.8% to
// 1.1% and, in a disturbed period, the run-to-run quartile distance by
// half. The kernel allocates nothing, but how much memory the preceding
// operation touched still shows a little (its page-table entries get
// evicted): 950 µs after agg-hi-overlap's recurrences, 1 030 µs after
// agg-lo-overlap's. That is a constant per workload.

// calibRef is the kernel's median time between agg-hi-overlap's
// recurrences on the quiet sandbox, so that reported times read as that
// host's wall time.
const calibRef = 950 * time.Microsecond

var (
	// calibMem is 64 MB outside the Go heap (so it neither is scanned nor
	// moves the collector's pacing), every page touched.
	calibMem  = mustMmap(64 << 20)
	calibKeys = make([]uint64, 4096)
	calibPos  uint64
)

func mustMmap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("benchmark: calibration buffer: %v", err))
	}
	for i := 0; i < n; i += 4096 {
		b[i] = 1
	}
	return b
}

// calibrate runs the kernel once and returns its wall time.
func calibrate() time.Duration {
	t := time.Now()
	p, mask := calibPos, uint64(len(calibMem)-1)
	for i := 0; i < 2000; i++ { // each address depends on the previous load
		p = uint64(calibMem[p&mask]) + p*6364136223846793005 + 1442695040888963407
	}
	calibPos = p
	x := uint64(88172645463325252)
	for i := range calibKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibKeys[i] = x
	}
	slices.Sort(calibKeys)
	return time.Since(t)
}

// hostSpeed turns the calibration times taken before each operation into
// one slowdown factor per operation: the median of the nine calibrations
// around it, over calibRef. One calibration alone is as noisy as what it
// corrects.
func hostSpeed(calib []time.Duration) []float64 {
	out := make([]float64, len(calib))
	for i := range calib {
		lo, hi := max(0, i-4), min(len(calib), i+5)
		window := make([]float64, hi-lo)
		for j := range window {
			window[j] = float64(calib[lo+j])
		}
		out[i] = median(window) / float64(calibRef)
	}
	return out
}
