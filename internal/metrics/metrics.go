// Package metrics is a lightweight instrumentation registry for the CCP
// runtime: counters, gauges, and histograms shared by the agent, the
// datapath runtimes, the transports, and the sharded executor. The paper's
// scaling question ("can CCP handle many flows?", §4) is an empirical one;
// this package supplies the numbers — reports processed, batch sizes, queue
// depths, drops, fallback activations — that the scale experiments consume.
//
// Design constraints, in order:
//
//  1. Hot-path writes are a single atomic op (Counter.Inc, Gauge.Add,
//     Histogram.Observe). No locks, no allocation, safe from any goroutine.
//  2. A nil *Registry is valid everywhere: lookups return nil instruments,
//     and a nil *Counter, *Gauge or *Histogram absorbs writes and reads as
//     empty. Instrumented code never nil-checks, and uninstrumented code
//     holds no instrument: fifty thousand flows without a registry do not
//     carry fifty thousand unreadable histograms. (Not one shared sink per
//     kind instead: every flow on every core would write the same line.)
//  3. Reads are snapshots: Snapshot() returns a stable, sorted view the
//     experiments serialize, decoupled from concurrent writers.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a programming error but are not checked
// on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, live flows).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the level by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// counts observations in (2^(i-1), 2^i] times the histogram's unit, with
// bucket 0 catching everything ≤ 1 unit and the last bucket unbounded;
// 64 buckets span any int64-expressible magnitude.
const histBuckets = 64

// Histogram accumulates a distribution of non-negative observations in
// power-of-two buckets. Observe is lock-free; Snapshot is
// consistent enough for reporting (it reads counters individually, so a
// snapshot taken mid-burst may be off by in-flight observations — fine for
// telemetry, and the scale experiments quiesce before reading).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // sum of raw observations, truncated to int64
	max     atomic.Int64
	min     atomic.Int64 // stored as value+1 so 0 means "no observations yet"
	buckets [histBuckets]atomic.Int64
}

// bucketFor maps an observation to its bucket index: ceil(log2(v)) clamped
// to the table.
func bucketFor(v float64) int {
	if v <= 1 {
		return 0
	}
	b := int(math.Ceil(math.Log2(v)))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketUpper returns bucket i's inclusive upper bound.
func bucketUpper(i int) float64 {
	return math.Exp2(float64(i))
}

// Observe records one observation. Negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v))
	for {
		cur := h.max.Load()
		if int64(v) <= cur || h.max.CompareAndSwap(cur, int64(v)) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if cur != 0 && int64(v)+1 >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, int64(v)+1) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time view of a Histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Min     float64
	Max     float64
	Buckets []BucketCount // non-empty buckets only, ascending
}

// BucketCount is one non-empty bucket: Count observations ≤ Upper (and
// above the previous bucket's bound).
type BucketCount struct {
	Upper float64
	Count int64
}

// Snapshot captures the histogram's current distribution.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   float64(h.sum.Load()),
		Max:   float64(h.max.Load()),
	}
	if m := h.min.Load(); m != 0 {
		s.Min = float64(m - 1)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Upper: bucketUpper(i), Count: n})
		}
	}
	return s
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1])
// from the bucket boundaries: the upper bound of the bucket containing the
// q-th observation. Resolution is the power-of-two bucket width.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			if b.Upper > s.Max {
				return s.Max // the last occupied bucket is bounded by the true max
			}
			return b.Upper
		}
	}
	return s.Max
}

// Registry names and owns instruments. The zero value is not usable; use
// NewRegistry. A nil *Registry is usable: every lookup returns a nil
// instrument, so instrumentation can be threaded unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil, the counter that absorbs writes.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns nil, the gauge that absorbs writes.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. On a
// nil registry it returns nil, the histogram that absorbs writes.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a stable view of every instrument, keys sorted.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures every instrument's current value. On a nil registry it
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// String renders the snapshot deterministically (sorted names), one
// instrument per line — the experiments' debug dump format.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %d\n", name, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "histogram %s count=%d mean=%.3g p50=%.3g p99=%.3g max=%.3g\n",
			name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max)
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
