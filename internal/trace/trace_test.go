package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestSeriesAtHoldsLastValue(t *testing.T) {
	s := NewSeries("cwnd", "bytes")
	s.Add(secs(1), 10)
	s.Add(secs(2), 20)
	s.Add(secs(3), 30)
	cases := []struct {
		t time.Duration
		v float64
	}{
		{0, 0}, {secs(1), 10}, {secs(1.5), 10}, {secs(2), 20}, {secs(10), 30},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.v {
			t.Errorf("At(%v)=%v, want %v", c.t, got, c.v)
		}
	}
}

func TestSeriesStats(t *testing.T) {
	s := NewSeries("x", "u")
	for i, v := range []float64{1, 5, 3} {
		s.Add(secs(float64(i)), v)
	}
	if s.Len() != 3 {
		t.Fatalf("len=%d", s.Len())
	}
	if got := s.MeanOver(secs(0.5), secs(2.5)); got != 4 {
		t.Fatalf("MeanOver=%v, want 4", got)
	}
	if got := s.MeanOver(secs(10), secs(20)); got != 0 {
		t.Fatalf("empty MeanOver=%v", got)
	}
}

func TestRMSE(t *testing.T) {
	a := NewSeries("a", "u")
	b := NewSeries("b", "u")
	for i := 0; i < 10; i++ {
		a.Add(secs(float64(i)), 5)
		b.Add(secs(float64(i)), 8)
	}
	got := RMSE(a, b, time.Second, 0, secs(10))
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("rmse=%v, want 3", got)
	}
	if RMSE(a, a, time.Second, 0, secs(10)) != 0 {
		t.Fatal("self-rmse nonzero")
	}
}

func TestWriteMultiCSV(t *testing.T) {
	a := NewSeries("a", "u")
	b := NewSeries("b", "u")
	a.Add(0, 1)
	a.Add(secs(2), 2)
	b.Add(secs(1), 9)
	var sb strings.Builder
	if err := WriteMultiCSV(&sb, time.Second, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines=%d: %q", len(lines), sb.String())
	}
	if lines[0] != "time_s,a,b" {
		t.Fatalf("header=%q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "1.000000,1.000000,9.000000") {
		t.Fatalf("row=%q", lines[2])
	}
}

func TestASCIIChart(t *testing.T) {
	s := NewSeries("ramp", "u")
	for i := 0; i <= 100; i++ {
		s.Add(secs(float64(i)/10), float64(i))
	}
	out := s.ASCII(40, 8)
	if !strings.Contains(out, "ramp (u)") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Fatalf("chart too short: %d lines", len(lines))
	}
	// A ramp fills the bottom row more than the top row.
	top := strings.Count(lines[1], "#")
	bottom := strings.Count(lines[8], "#")
	if bottom <= top {
		t.Fatalf("ramp shape wrong: top=%d bottom=%d", top, bottom)
	}
}

func TestASCIIEmpty(t *testing.T) {
	if out := NewSeries("e", "u").ASCII(10, 4); out != "(no data)\n" {
		t.Fatalf("empty chart=%q", out)
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{1, 1, 1}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("equal shares: %v", got)
	}
	if got := JainFairness([]float64{1, 0, 0}); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("one hog: %v", got)
	}
	if JainFairness(nil) != 0 || JainFairness([]float64{0, 0}) != 0 {
		t.Fatal("degenerate cases")
	}
}
