package obs

import (
	"math"
	"sort"
	"sync"
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
// to the observed min/max. A nil *Histogram is a no-op.
type Histogram struct {
	name   string
	labels []Label

	mu       sync.Mutex
	bounds   []float64 // ascending upper bounds; +Inf implicit
	counts   []int64   // len(bounds)+1, non-cumulative
	count    int64
	sum      float64
	min, max float64
}

func newHistogram(name string, labels []Label, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		name:   name,
		labels: append([]Label(nil), labels...),
		bounds: b,
		counts: make([]int64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Labels returns the series' labels.
func (h *Histogram) Labels() []Label { return h.labels }

// Series returns the full series identity, name plus label string.
func (h *Histogram) Series() string { return seriesKey(h.name, h.labels) }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
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

// Count returns the number of samples observed (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all samples (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
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
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
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
	if h == nil {
		return 0
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
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
