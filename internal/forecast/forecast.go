// Package forecast implements Holt's double exponential smoothing, the
// estimation model Redoop's Execution Profiler uses to predict the
// execution time of future query recurrences (paper §3.3, Equations
// 1–3; Chatfield, "The Holt-Winters forecasting procedure").
//
// After observing execution time X_i of the i-th recurrence the profiler
// updates a local level L_i and trend T_i:
//
//	L_i = α·X_i + (1-α)·(L_{i-1} + T_{i-1})
//	T_i = β·(L_i - L_{i-1}) + (1-β)·T_{i-1}
//
// and forecasts the (i+k)-th recurrence as X̂_{i+k} = L_i + k·T_i.
package forecast

import (
	"fmt"
	"math"
)

// Holt is a double-exponential-smoothing estimator. The zero value is
// not usable; construct with NewHolt.
type Holt struct {
	alpha, beta float64
	level       float64
	trend       float64
	n           int // observations seen
}

// NewHolt returns an estimator with the given smoothing parameters.
// Both must lie in (0, 1]; the paper selects them by fitting historical
// data, and Redoop's profiler defaults to α=0.5, β=0.3.
func NewHolt(alpha, beta float64) (*Holt, error) {
	if !(alpha > 0 && alpha <= 1) || math.IsNaN(alpha) {
		return nil, fmt.Errorf("forecast: alpha must be in (0,1], got %v", alpha)
	}
	if !(beta > 0 && beta <= 1) || math.IsNaN(beta) {
		return nil, fmt.Errorf("forecast: beta must be in (0,1], got %v", beta)
	}
	return &Holt{alpha: alpha, beta: beta}, nil
}

// N returns the number of observations absorbed so far.
func (h *Holt) N() int { return h.n }

// Level returns the current smoothed level L_i.
func (h *Holt) Level() float64 { return h.level }

// Trend returns the current smoothed trend T_i.
func (h *Holt) Trend() float64 { return h.trend }

// Observe absorbs the execution time (or any series value) of the next
// recurrence. The first observation initializes the level; the second
// initializes the trend; thereafter Equations 1 and 2 apply.
func (h *Holt) Observe(x float64) {
	switch h.n {
	case 0:
		h.level = x
	case 1:
		h.trend = x - h.level
		h.level = x
	default:
		prevLevel := h.level
		h.level = h.alpha*x + (1-h.alpha)*(h.level+h.trend)
		h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	}
	h.n++
}

// Forecast returns X̂_{i+k} = L_i + k·T_i, the k-step-ahead prediction
// (Equation 3). k must be at least 1. Before any observation the
// forecast is zero; after a single observation it is the level (no trend
// information yet).
func (h *Holt) Forecast(k int) float64 {
	if k < 1 {
		k = 1
	}
	if h.n == 0 {
		return 0
	}
	return h.level + float64(k)*h.trend
}

// Ready reports whether the estimator has seen enough observations (two)
// for its trend term to be meaningful. Redoop does not switch execution
// modes off an unprimed estimator.
func (h *Holt) Ready() bool { return h.n >= 2 }

// Reset clears all state, keeping the smoothing parameters. The profiler
// resets the estimator when the partition plan changes scale, because
// execution times under the old plan no longer predict the new one.
func (h *Holt) Reset() {
	h.level, h.trend, h.n = 0, 0, 0
}
