package stats

import (
	"math"
	"sort"
)

// Samples collects float64 observations for percentile and CDF reporting.
// The zero value is ready to use. It is not safe for concurrent use.
type Samples struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Samples) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Samples) Len() int { return len(s.xs) }

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Returns 0 for an empty set.
func (s *Samples) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// CDFPoint is one point of an empirical CDF: fraction F of samples are <= X.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF evaluated at n evenly spaced cumulative
// fractions (1/n, 2/n, ..., 1). Returns nil for an empty set.
func (s *Samples) CDF(n int) []CDFPoint {
	if len(s.xs) == 0 || n <= 0 {
		return nil
	}
	s.sort()
	pts := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n)
		idx := int(math.Ceil(f*float64(len(s.xs)))) - 1
		if idx < 0 {
			idx = 0
		}
		pts = append(pts, CDFPoint{X: s.xs[idx], F: f})
	}
	return pts
}

func (s *Samples) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}
