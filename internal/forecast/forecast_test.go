package forecast

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewHoltValidation(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{
		{0, 0.3}, {-0.1, 0.3}, {1.1, 0.3}, {0.5, 0}, {0.5, 2}, {math.NaN(), 0.3}, {0.5, math.NaN()},
	} {
		if _, err := NewHolt(c.a, c.b); err == nil {
			t.Errorf("NewHolt(%v,%v) should fail", c.a, c.b)
		}
	}
	if _, err := NewHolt(0.5, 0.3); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

// newHolt is the profiler's default estimator, α=0.5, β=0.3.
func newHolt(t *testing.T) *Holt {
	t.Helper()
	h, err := NewHolt(0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestInitialization(t *testing.T) {
	h := newHolt(t)
	if h.Forecast(1) != 0 {
		t.Error("forecast before any observation should be zero")
	}
	h.Observe(100)
	if h.Level() != 100 || h.Trend() != 0 {
		t.Errorf("after first obs: level=%v trend=%v, want 100, 0", h.Level(), h.Trend())
	}
	if h.Ready() {
		t.Error("one observation should not make the estimator ready")
	}
	h.Observe(110)
	if h.Level() != 110 || h.Trend() != 10 {
		t.Errorf("after second obs: level=%v trend=%v, want 110, 10", h.Level(), h.Trend())
	}
	if !h.Ready() {
		t.Error("two observations should make the estimator ready")
	}
	if h.N() != 2 {
		t.Errorf("N = %d, want 2", h.N())
	}
}

func TestLinearTrendForecastIsExact(t *testing.T) {
	// For a perfectly linear series the smoothed level and trend lock
	// onto the line, so the k-step forecast is exact.
	h := newHolt(t)
	for i := 0; i < 20; i++ {
		h.Observe(50 + 10*float64(i))
	}
	got := h.Forecast(3)
	want := 50 + 10*float64(22)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("Forecast(3) = %v, want %v", got, want)
	}
}

func TestConstantSeries(t *testing.T) {
	h := newHolt(t)
	for i := 0; i < 10; i++ {
		h.Observe(42)
	}
	if math.Abs(h.Forecast(5)-42) > 1e-9 {
		t.Errorf("constant series should forecast the constant, got %v", h.Forecast(5))
	}
}

func TestSpikeDetection(t *testing.T) {
	// The profiler's use case: execution times double; the forecast
	// should move decisively toward the new regime.
	h := newHolt(t)
	for i := 0; i < 5; i++ {
		h.Observe(100)
	}
	h.Observe(200)
	h.Observe(200)
	if f := h.Forecast(1); f < 150 {
		t.Errorf("forecast after a sustained doubling should exceed 150, got %v", f)
	}
}

func TestForecastKClamped(t *testing.T) {
	h := newHolt(t)
	h.Observe(10)
	h.Observe(20)
	if h.Forecast(0) != h.Forecast(1) || h.Forecast(-3) != h.Forecast(1) {
		t.Error("k < 1 should clamp to 1")
	}
}

func TestReset(t *testing.T) {
	h := newHolt(t)
	h.Observe(10)
	h.Observe(20)
	h.Reset()
	if h.N() != 0 || h.Level() != 0 || h.Trend() != 0 || h.Ready() {
		t.Error("Reset should clear all state")
	}
	h.Observe(7)
	if h.Level() != 7 {
		t.Error("estimator should re-initialize after Reset")
	}
}

// Property: for any bounded positive series, forecasts stay finite and
// the one-step forecast after many constant observations converges to
// the constant.
func TestForecastStabilityProperty(t *testing.T) {
	f := func(vals []uint16, tail uint16) bool {
		h := newHolt(t)
		for _, v := range vals {
			h.Observe(float64(v%1000) + 1)
		}
		c := float64(tail%1000) + 1
		for i := 0; i < 60; i++ {
			h.Observe(c)
		}
		got := h.Forecast(1)
		return !math.IsNaN(got) && !math.IsInf(got, 0) && math.Abs(got-c) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkHoltForecast measures the profiler's smoothing update and
// forecast.
func BenchmarkHoltForecast(b *testing.B) {
	h, err := NewHolt(0.5, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		h.Observe(float64(100 + i%17))
		_ = h.Forecast(1)
	}
}
