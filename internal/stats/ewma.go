// Package stats provides the small statistical building blocks used by the
// datapath (rate estimation, RTT filtering) and by the experiment harnesses
// (percentiles, CDFs, summaries).
package stats

import "math"

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]: higher alpha weights new samples more heavily. It is a
// value: embed it where it is used. The zero value has alpha 1 (it follows the
// last sample); MakeEWMA sets any other.
type EWMA struct {
	keep  float64 // 1 - alpha, the weight of the running value, in [0, 1)
	value float64
	init  bool
}

// MakeEWMA returns an EWMA with the given smoothing factor. Alpha is clamped
// to (0, 1].
func MakeEWMA(alpha float64) EWMA {
	if alpha <= 0 {
		alpha = 1e-9
	}
	if alpha > 1 {
		alpha = 1
	}
	return EWMA{keep: 1 - alpha}
}

// Update folds a new sample into the average and returns the new value. The
// first sample initializes the average directly.
func (e *EWMA) Update(sample float64) float64 {
	if !e.init {
		e.value = sample
		e.init = true
		return e.value
	}
	e.value = (1-e.keep)*sample + e.keep*e.value
	return e.value
}

// Value returns the current average, or 0 if no samples have been folded in.
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been observed.
func (e *EWMA) Initialized() bool { return e.init }

// Reset discards all state.
func (e *EWMA) Reset() { e.value, e.init = 0, false }

// MeanVar accumulates an online mean and variance (Welford's algorithm).
// The zero value is ready to use.
type MeanVar struct {
	n    int
	mean float64
	m2   float64
}

// Add folds in one sample.
func (m *MeanVar) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Count returns the number of samples observed.
func (m *MeanVar) Count() int { return m.n }

// Mean returns the sample mean, or 0 with no samples.
func (m *MeanVar) Mean() float64 { return m.mean }

// Var returns the (population) variance, or 0 with fewer than two samples.
func (m *MeanVar) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Stddev returns the population standard deviation.
func (m *MeanVar) Stddev() float64 { return math.Sqrt(m.Var()) }
