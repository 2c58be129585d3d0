package obs

import (
	"math"
	"sort"
)

// DefBuckets are the default histogram bucket upper bounds: base-4
// exponential from 1e-6 up through ~1.1e6, wide enough to cover both
// virtual-second durations (micro- to kilo-seconds) and byte volumes
// when callers prefer not to pick bounds per metric.
var DefBuckets = func() []float64 {
	out := make([]float64, 0, 21)
	for v := 1e-6; v < 2e6; v *= 4 {
		out = append(out, v)
	}
	return out
}()

// Histogram accumulates observations into fixed buckets and tracks
// count, sum, min and max. Quantiles are estimated by linear
// interpolation within the bucket containing the target rank, clamped
// to the observed min/max. Samples are added one at a time, so the sum
// depends on their order: an exposition adds them in record order. Not
// safe for concurrent use.
type Histogram struct {
	bounds   []float64 // ascending upper bounds; +Inf implicit
	counts   []int64   // len(bounds)+1, non-cumulative
	count    int64
	sum      float64
	min, max float64
}

// newHistogram returns an empty histogram over bounds (DefBuckets when
// nil).
func newHistogram(bounds []float64) Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return Histogram{
		bounds: b,
		counts: make([]int64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// BucketCount is one exported bucket: the upper bound (inclusive) and
// the cumulative count of samples at or below it, Prometheus `le`
// semantics. The final bucket has UpperBound +Inf.
type BucketCount struct {
	UpperBound float64
	Count      int64 // cumulative
}

// Buckets returns the cumulative bucket counts.
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, 0, len(h.counts))
	var cum int64
	for i, c := range h.counts {
		cum += c
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out = append(out, BucketCount{UpperBound: ub, Count: cum})
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// samples: the bucket containing the target rank is located and the
// value interpolated linearly across it, clamped to the observed
// min/max so estimates never leave the sampled range. With no samples
// it returns 0; NaN is returned for q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if lo < h.min {
				lo = h.min
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.max
}
