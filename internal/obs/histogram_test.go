package obs

import (
	"math"
	"testing"
)

// TestHistogramQuantiles checks interpolation against a uniform sample
// set with known quantiles.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	cases := []struct {
		q    float64
		want float64
		tol  float64
	}{
		{0, 1, 1.5},     // clamped to observed min
		{0.5, 50, 5},    // median of uniform 1..100
		{0.9, 90, 5},    // p90
		{0.99, 99, 5},   // p99
		{1.0, 100, 0.1}, // max
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", c.q, got, c.want, c.tol)
		}
	}
}

// TestHistogramSingleBucket checks quantiles clamp to the observed
// min/max when all samples land in one bucket.
func TestHistogramSingleBucket(t *testing.T) {
	h := newHistogram([]float64{1000})
	h.Observe(40)
	h.Observe(60)
	if got := h.Quantile(0); got != 40 {
		t.Errorf("Quantile(0) = %v, want the minimum, 40", got)
	}
	if got := h.Quantile(1); got != 60 {
		t.Errorf("Quantile(1) = %v, want the maximum, 60", got)
	}
}

// TestHistogramOverflowBucket checks samples above every bound land in
// the +Inf bucket and quantiles stay within the observed range.
func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1e9)
	h.Observe(2e9)
	bs := h.Buckets()
	if got := bs[len(bs)-1].Count; got != 2 {
		t.Errorf("+Inf bucket = %d, want 2", got)
	}
	if !math.IsInf(bs[len(bs)-1].UpperBound, 1) {
		t.Errorf("last bound = %v, want +Inf", bs[len(bs)-1].UpperBound)
	}
	if got := h.Quantile(0.99); got > 2e9 || got < 1e9 {
		t.Errorf("Quantile(0.99) = %v outside observed range", got)
	}
}

// TestHistogramEmptyAndInvalid checks the degenerate cases.
func TestHistogramEmptyAndInvalid(t *testing.T) {
	h := newHistogram(nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	h.Observe(5)
	if got := h.Quantile(1.5); !math.IsNaN(got) {
		t.Errorf("Quantile(1.5) = %v, want NaN", got)
	}
	if got := h.Quantile(-0.1); !math.IsNaN(got) {
		t.Errorf("Quantile(-0.1) = %v, want NaN", got)
	}
}

// TestHistogramCumulativeBuckets checks Prometheus le semantics: bucket
// counts are cumulative and a boundary value counts into its bucket.
func TestHistogramCumulativeBuckets(t *testing.T) {
	h := newHistogram([]float64{10, 20})
	h.Observe(10) // le="10"
	h.Observe(15) // le="20"
	h.Observe(25) // +Inf
	bs := h.Buckets()
	wants := []int64{1, 2, 3}
	for i, w := range wants {
		if bs[i].Count != w {
			t.Errorf("bucket[%d] = %d, want %d", i, bs[i].Count, w)
		}
	}
	if h.sum != 50 || h.count != 3 {
		t.Errorf("sum/count = %v/%v", h.sum, h.count)
	}
}
