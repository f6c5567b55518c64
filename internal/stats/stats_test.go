package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEWMAFirstSampleInitializes(t *testing.T) {
	e := MakeEWMA(0.5)
	if e.init {
		t.Fatal("fresh EWMA reports initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first sample: got %v, want 10", got)
	}
	if !e.init {
		t.Fatal("EWMA not initialized after first sample")
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := MakeEWMA(0.5)
	e.Update(10)
	if got := e.Update(20); got != 15 {
		t.Fatalf("got %v, want 15", got)
	}
	if got := e.Update(15); got != 15 {
		t.Fatalf("got %v, want 15", got)
	}
}

func TestEWMAAlphaClamped(t *testing.T) {
	for _, alpha := range []float64{-1, 0, 2} {
		e := MakeEWMA(alpha)
		e.Update(1)
		e.Update(3)
		v := e.Value()
		if v < 1 || v > 3 {
			t.Fatalf("alpha=%v: value %v outside sample range", alpha, v)
		}
	}
}

func TestEWMAReset(t *testing.T) {
	e := MakeEWMA(0.3)
	e.Update(5)
	e.Reset()
	if e.init || e.Value() != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := MakeEWMA(0.25)
	for i := 0; i < 200; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("did not converge: %v", e.Value())
	}
}

func TestEWMABetweenMinAndMax(t *testing.T) {
	// Property: EWMA value always lies within [min, max] of samples seen.
	f := func(samples []float64, alphaRaw uint8) bool {
		if len(samples) == 0 {
			return true
		}
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return true
			}
		}
		alpha := float64(alphaRaw%100+1) / 100
		e := MakeEWMA(alpha)
		lo, hi := samples[0], samples[0]
		for _, s := range samples {
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
			e.Update(s)
		}
		v := e.Value()
		const eps = 1e-6
		return v >= lo-eps-math.Abs(lo)*eps && v <= hi+eps+math.Abs(hi)*eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileEmpty(t *testing.T) {
	var s Samples
	if s.Percentile(0) != 0 || s.Percentile(50) != 0 || s.Percentile(100) != 0 {
		t.Fatal("empty Samples should return zeros")
	}
	if s.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestPercentileExact(t *testing.T) {
	var s Samples
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v=%v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	var s Samples
	s.Add(0)
	s.Add(10)
	if got := s.Percentile(50); math.Abs(got-5) > 1e-9 {
		t.Fatalf("p50=%v, want 5", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var s Samples
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		if s.Len() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFIsNondecreasing(t *testing.T) {
	var s Samples
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		s.Add(rng.NormFloat64())
	}
	pts := s.CDF(100)
	if len(pts) != 100 {
		t.Fatalf("len=%d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F <= pts[i-1].F {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	if pts[len(pts)-1].F != 1 {
		t.Fatalf("last F=%v, want 1", pts[len(pts)-1].F)
	}
}

func TestCDFMatchesSortedData(t *testing.T) {
	var s Samples
	data := []float64{9, 1, 5, 3, 7}
	for _, x := range data {
		s.Add(x)
	}
	sort.Float64s(data)
	pts := s.CDF(5)
	for i, p := range pts {
		if p.X != data[i] {
			t.Fatalf("point %d: X=%v, want %v", i, p.X, data[i])
		}
	}
}
