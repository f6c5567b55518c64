// Package absint is an abstract interpreter over the datapath DSL
// (internal/lang): fold update lists and control-program expressions are
// evaluated over an interval lattice with NaN-taint and fresh-measurement
// provenance bits, iterated to a fixpoint across fold steps with threshold
// widening. The resulting invariant proves, at install time, the properties
// the datapath otherwise only checks defensively per ACK: division by a
// denominator that may be zero, NaN reaching a cwnd/rate write, and
// cwnd/rate writes escaping the runtime clamp bounds. See DESIGN.md §13.
//
// The abstract semantics mirror lang's concrete semantics exactly,
// including the total-arithmetic squash: every binary arithmetic result
// that would be NaN or ±Inf evaluates to 0 at runtime, so the transfer
// functions fold 0 into any result interval that could overflow or absorb
// a NaN operand. Soundness against the runtime is pinned by the
// FuzzStackVsRegister harness (verifier-silent locations never trip
// runtime defensive checks over NaN/Inf-biased packet streams).
package absint

import "math"

// Interval is a closed interval of float64 values with ±Inf endpoints
// allowed. The canonical empty interval is [+Inf, -Inf]; an empty interval
// combined with the NaN bit set (see AbsVal) represents "definitely NaN".
// Endpoints are never NaN.
type Interval struct {
	Lo, Hi float64
}

// Top is the interval of all non-NaN values.
func Top() Interval { return Interval{math.Inf(-1), math.Inf(1)} }

// Empty is the canonical empty interval.
func Empty() Interval { return Interval{math.Inf(1), math.Inf(-1)} }

// Point is the singleton interval {v}.
func Point(v float64) Interval { return Interval{v, v} }

// IsEmpty reports whether the interval contains no values.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// IsPoint reports whether the interval is a singleton.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// HasInf reports whether either endpoint is infinite (the interval admits
// values of unbounded magnitude, or ±Inf itself).
func (iv Interval) HasInf() bool { return math.IsInf(iv.Lo, -1) || math.IsInf(iv.Hi, 1) }

// Join returns the smallest interval containing both operands.
func (iv Interval) Join(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{math.Min(iv.Lo, o.Lo), math.Max(iv.Hi, o.Hi)}
}

// Meet returns the intersection.
func (iv Interval) Meet(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return Empty()
	}
	m := Interval{math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)}
	if m.IsEmpty() {
		return Empty()
	}
	return m
}

// Widening thresholds: when a fold register keeps growing across fixpoint
// iterations, its bound jumps to the next threshold instead of creeping by
// one EWMA step per iteration (which would never terminate). The values are
// the natural scales of the domain: booleans/fractions (1), RTT-ish seconds
// and packet counts (1024, 65536), the cwnd clamp (2^30 bytes), the rate
// clamp (1e12 bytes/sec), and finally ±Inf.
var (
	hiThresholds = []float64{0, 1, 1024, 65536, CwndMax, RateMax, math.Inf(1)}
	loThresholds = []float64{0, -1, -65536, -RateMax, math.Inf(-1)}
)

// Widen accelerates convergence: endpoints of next that moved past the
// corresponding endpoint of prev are pushed outward to the nearest
// threshold. Endpoints that did not move are kept exact.
func (iv Interval) Widen(next Interval) Interval {
	if iv.IsEmpty() {
		return next
	}
	if next.IsEmpty() {
		return iv
	}
	out := next
	if next.Hi > iv.Hi {
		out.Hi = math.Inf(1)
		for _, t := range hiThresholds {
			if t >= next.Hi {
				out.Hi = t
				break
			}
		}
	}
	if next.Lo < iv.Lo {
		out.Lo = math.Inf(-1)
		for _, t := range loThresholds {
			if t <= next.Lo {
				out.Lo = t
				break
			}
		}
	}
	return out
}

// iArith computes the interval image of a total (but possibly overflowing)
// binary arithmetic op from the endpoint candidates. A NaN candidate
// (Inf-Inf, 0·Inf, Inf/Inf) means the op is discontinuous across the
// operand boxes, so the result degrades to Top; the caller separately folds
// in the runtime's NaN/Inf→0 squash.
func iArith(f func(a, b float64) float64, l, r Interval) Interval {
	if l.IsEmpty() || r.IsEmpty() {
		return Empty()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range [2]float64{l.Lo, l.Hi} {
		for _, b := range [2]float64{r.Lo, r.Hi} {
			v := f(a, b)
			if math.IsNaN(v) {
				return Top()
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	return Interval{lo, hi}
}

// iDiv is the interval image of l / r for denominators that exclude zero;
// denominators containing zero degrade to Top (the caller has already
// flagged the potential zero and the runtime substitutes 0, which Top
// contains). A denominator that is exactly {0} yields exactly {0}.
func iDiv(l, r Interval) Interval {
	if l.IsEmpty() || r.IsEmpty() {
		return Empty()
	}
	if r.Lo == 0 && r.Hi == 0 {
		return Point(0)
	}
	if r.Contains(0) {
		return Top()
	}
	return iArith(func(a, b float64) float64 { return a / b }, l, r)
}
