package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/ccp-repro/ccp/internal/stats"
)

// metricDef names one emitted metric. BENCHMARK.json lists the same names
// and units (bench_test.go pins the two against each other); bounds and
// directions live only in BENCHMARK.json, where -compare reads them.
type metricDef struct{ name, unit string }

// endToEnd is emitted by untraced runs, on every workload, and gated: apart
// from setup_s these are counts, which repeat to a tenth of a percent on a
// box whose timings do not repeat to a tenth (README, "Spread").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_report", "count"},
	{"bytes_per_report", "bytes"},
	{"heap_kb_per_flow", "KiB"},
	{"frames_per_report", "count"},
	{"wire_bytes_per_report", "bytes"},
}

// timing is measured by the same untraced runs and reported beside the gated
// metrics — on "# timing" lines, in -out documents, and by -compare as
// warnings — but is not part of the harness contract's metric list.
var timing = []metricDef{
	{"loop_p50_us", "us"},
	{"reports_per_s", "1/s"},
	{"acks_per_s", "1/s"},
	{"cpu_us_per_report", "us"},
}

// perLayer is emitted by traced runs. A metric a workload never exercises
// (install parts on direct50k, churn counters elsewhere) reads 0.
var perLayer = []metricDef{
	{"datapath.onack_ns", "ns"},
	{"lang.fold_step_ns", "ns"},
	{"datapath.deliver_install_ns", "ns"},
	{"lang.unmarshal_program_ns", "ns"},
	{"lang.validate_ns", "ns"},
	{"absint.analyze_ns", "ns"},
	{"lang.compile_fold_ns", "ns"},
	{"lang.compile_ctrl_ns", "ns"},
	{"datapath.install_other_ns", "ns"},
	{"lang.program_bytes", "bytes"},
	{"datapath.report_ns", "ns"},
	{"datapath.deliver_ctrl_ns", "ns"},
	{"proto.marshal_ns", "ns"},
	{"proto.unmarshal_ns", "ns"},
	{"proto.bytes_up_per_report", "bytes"},
	{"proto.bytes_down_per_decision", "bytes"},
	{"proto.frames_up", "count"},
	{"proto.frames_down", "count"},
	{"shmring.send_ns", "ns"},
	{"shmring.empty_polls", "count"},
	{"shmring.agent_parks", "count"},
	{"shmring.transit_up_ns", "ns"},
	{"shmring.transit_down_ns", "ns"},
	{"runtime.dispatch_ns", "ns"},
	{"runtime.mailbox_wait_ns", "ns"},
	{"runtime.reply_ns", "ns"},
	{"algorithms.on_measurement_ns", "ns"},
	{"algorithms.decisions_per_report", "ratio"},
	{"datapath.init_ns", "ns"},
	{"datapath.close_ns", "ns"},
	{"core.flows_created", "count"},
	{"core.flows_closed", "count"},
	{"datapath.acks", "count"},
	{"datapath.reports", "count"},
	{"datapath.urgents", "count"},
	{"datapath.installs", "count"},
	{"datapath.install_rejects", "count"},
	{"datapath.send_errors", "count"},
	{"datapath.stale_ctrl_drops", "count"},
	{"datapath.fallback_entries", "count"},
	{"core.measurements", "count"},
	{"core.urgents", "count"},
	{"core.stale_reports", "count"},
	{"core.install_errs", "count"},
	{"runtime.dispatched", "count"},
	{"runtime.dropped", "count"},
	{"runtime.reports_shed", "count"},
	{"runtime.batches_split", "count"},
	{"runtime.backoffs_sent", "count"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms", "ms"},
	{"process.heap_mb", "MiB"},
	{"driver.reports_per_s", "1/s"},
	{"driver.acks_per_s", "1/s"},
	{"driver.cpu_us_per_report", "us"},
	{"driver.flows_per_s", "1/s"},
	{"driver.late_p50_us", "us"},
	{"driver.late_p99_us", "us"},
	{"driver.loop_p50_us", "us"},
	{"driver.loop_p90_us", "us"},
	{"driver.loop_p99_us", "us"},
	{"driver.loop_samples", "count"},
	{"driver.residual_pct", "%"},
	{"driver.trace_overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and refuses anything the definitions do
// not cover, so the emitted set and the declared set cannot drift.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name == name {
			s.vals[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// finish returns every declared metric with its unit, or an error naming the
// first one that was never set or is not a finite number.
func (s *metricSet) finish() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(s.defs))
	for _, d := range s.defs {
		v, ok := s.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// acc is a sum-and-count accumulator for one timed call site.
type acc struct{ sum, n int64 }

func (a *acc) add(d int64) { a.sum += d; a.n++ }

func (a *acc) addN(d, n int64) { a.sum += d; a.n += n }

func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n)
}

func (a acc) plus(b acc) acc { return acc{a.sum + b.sum, a.n + b.n} }

// hist is a log-bucketed latency histogram: 128 buckets per power of two, so
// a bucket is under 0.8% wide, in a fixed 57 KiB whatever the sample count.
// Exact samples would need tens of megabytes of live heap at 200k reports/s,
// and a harness that inflates the heap changes how often the collector runs
// in the program it measures.
type hist struct {
	counts [(64 - histSubBits + 1) << histSubBits]int64
	n      int64
}

const histSubBits = 7

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	i := int(v)
	if v >= 1<<histSubBits {
		e := bits.Len64(uint64(v)) - 1 - histSubBits
		i = (e+1)<<histSubBits | int(v>>uint(e))&(1<<histSubBits-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile (0..100), interpolated inside the
// bucket that holds it; 0 for no samples.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := float64(i), 1.0
			if i >= 1<<histSubBits {
				e := uint(i>>histSubBits - 1)
				lo = float64((int64(i)&(1<<histSubBits-1) | 1<<histSubBits) << e)
				width = float64(int64(1) << e)
			}
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

// percentileOf returns the p-th percentile (0..100) of v.
func percentileOf(v []float64, p float64) float64 {
	var s stats.Samples
	for _, x := range v {
		s.Add(x)
	}
	return s.Percentile(p)
}

func medianFloat(v []float64) float64 { return percentileOf(v, 50) }

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is the rule
// the acceptance check applies. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
