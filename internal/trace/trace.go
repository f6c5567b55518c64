// Package trace records and renders experiment time series: congestion
// window and throughput traces, CSV output for external plotting, compact
// ASCII charts for terminal reports, and run summaries (utilization, median
// RTT, fairness) matching the metrics the paper reports.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Point is one time-series observation.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named time series. Append-only; points must arrive in time
// order.
type Series struct {
	Name   string
	Unit   string
	points []Point
}

// NewSeries creates an empty series.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Add appends an observation.
func (s *Series) Add(t time.Duration, v float64) {
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying points (read-only by convention).
func (s *Series) Points() []Point { return s.points }

// At returns the last value at or before t (0 if none).
func (s *Series) At(t time.Duration) float64 {
	v := 0.0
	for _, p := range s.points {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// MeanOver returns the mean of values with from <= T < to.
func (s *Series) MeanOver(from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, p := range s.points {
		if p.T >= from && p.T < to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RMSE computes the root-mean-square difference between two series sampled
// on a fixed grid — the fidelity metric the batching ablation reports.
func RMSE(a, b *Series, step, from, to time.Duration) float64 {
	if step <= 0 || to <= from {
		return 0
	}
	sum, n := 0.0, 0
	for t := from; t < to; t += step {
		d := a.At(t) - b.At(t)
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// WriteMultiCSV writes several series on a shared time grid (union of
// timestamps, last-value-holds).
func WriteMultiCSV(w io.Writer, step time.Duration, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	header := []string{"time_s"}
	var end time.Duration
	for _, s := range series {
		header = append(header, s.Name)
		if n := s.Len(); n > 0 && s.points[n-1].T > end {
			end = s.points[n-1].T
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for t := time.Duration(0); t <= end; t += step {
		row := []string{fmt.Sprintf("%.6f", t.Seconds())}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.6f", s.At(t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ASCII renders the series as a compact terminal chart: rows top-down from
// max to 0, one column per time bin.
func (s *Series) ASCII(width, height int) string {
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 12
	}
	if len(s.points) == 0 {
		return "(no data)\n"
	}
	start := s.points[0].T
	end := s.points[len(s.points)-1].T
	span := end - start
	if span <= 0 {
		span = time.Second
	}
	// Column values: mean per bin.
	sums := make([]float64, width)
	counts := make([]int, width)
	for _, p := range s.points {
		col := int(float64(p.T-start) / float64(span) * float64(width-1))
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		sums[col] += p.V
		counts[col]++
	}
	cols := make([]float64, width)
	maxV := 0.0
	last := 0.0
	for i := range cols {
		if counts[i] > 0 {
			cols[i] = sums[i] / float64(counts[i])
			last = cols[i]
		} else {
			cols[i] = last
		}
		if cols[i] > maxV {
			maxV = cols[i]
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s), max=%.4g\n", s.Name, s.Unit, maxV)
	for row := height; row >= 1; row-- {
		threshold := maxV * (float64(row) - 0.5) / float64(height)
		b.WriteString("|")
		for _, v := range cols {
			if v >= threshold {
				b.WriteString("#")
			} else {
				b.WriteString(" ")
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, " %-10s%*s\n", fmtDur(start), width-10, fmtDur(end))
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}

// JainFairness computes Jain's fairness index over per-flow allocations.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
