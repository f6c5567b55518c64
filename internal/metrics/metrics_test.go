package metrics

import (
	"strings"
	"sync"
	"testing"

	"github.com/ccp-repro/ccp/internal/testenv"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reports")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter=%d want 5", got)
	}
	if r.Counter("reports") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge=%d want 4", got)
	}
}

func TestNilRegistryIsUsable(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(1)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestNilInstrumentsAbsorb: what a nil registry hands out is nil, and every
// method of a nil instrument is a no-op that reads as empty.
func TestNilInstrumentsAbsorb(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("x"), r.Gauge("y"), r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out instruments: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(3)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil counter=%d gauge=%d, want 0", c.Value(), g.Value())
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", s)
	}
}

// TestAllocsNilRegistry: code instrumented against a nil registry pays
// nothing for it — no instrument per lookup, nothing per write.
func TestAllocsNilRegistry(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("x").Inc()
		r.Gauge("y").Add(1)
		r.Histogram("z").Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("nil-registry instruments allocated %.1f times, want 0", allocs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count=%d", s.Count)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min=%v max=%v", s.Min, s.Max)
	}
	// Bucket resolution is a power of two: the quantile estimate must be an
	// upper bound within 2x of the true value.
	for _, tc := range []struct{ q, truth float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}} {
		got := s.Quantile(tc.q)
		if got < tc.truth || got > 2*tc.truth {
			t.Errorf("q%.2f=%v, want in [%v, %v]", tc.q, got, tc.truth, 2*tc.truth)
		}
	}
	if mean := s.Mean(); mean < 499 || mean > 502 {
		t.Errorf("mean=%v want ~500.5", mean)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot %+v", s)
	}
	h.Observe(-5) // clamps to 0
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("negative-observation snapshot %+v", s)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per + i + 1))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count=%d want %d", s.Count, workers*per)
	}
	if s.Min != 1 || s.Max != workers*per {
		t.Fatalf("min=%v max=%v", s.Min, s.Max)
	}
}

func TestSnapshotStringDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Gauge("depth").Set(3)
	r.Histogram("lat").Observe(100)
	s1, s2 := r.Snapshot().String(), r.Snapshot().String()
	if s1 != s2 {
		t.Fatalf("snapshot render unstable:\n%s\nvs\n%s", s1, s2)
	}
	if !strings.Contains(s1, "counter a 2") || !strings.Contains(s1, "counter b 1") {
		t.Fatalf("missing counters in render:\n%s", s1)
	}
	if strings.Index(s1, "counter a") > strings.Index(s1, "counter b") {
		t.Fatalf("counters not sorted:\n%s", s1)
	}
}
