// Package stats provides the small statistical building blocks used by the
// datapath (rate estimation, RTT filtering) and by the experiment harnesses
// (percentiles and CDFs).
package stats

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

// Reset discards all state.
func (e *EWMA) Reset() { e.value, e.init = 0, false }
