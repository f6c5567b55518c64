package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
)

// runConfig is one benchmark run. Only tests change anything but the first
// four fields.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	// warmup runs the workload before anything is measured, so caches fill
	// and the algorithms leave their start-up phase.
	warmup time.Duration
	// Set-up is repeated (stack torn down in between) at least minSetups
	// times and until setupBudget of wall time is spent, at most maxSetups
	// times; setup_s is their lower decile. What disturbs a set-up of a few
	// milliseconds (a parked serve loop slow to wake, a neighbour's burst)
	// only ever adds to it, so the low end is what repeats: over six
	// processes the median of 40 ackheavy set-ups ranged 5.0-11.9 ms, the
	// lower decile 4.1-5.2 ms. A traced run sets up once.
	minSetups, maxSetups int
	setupBudget          time.Duration
	// spanPath receives the span file of a traced run.
	spanPath string
	// awaitQuiet makes an untraced run wait for a settled machine before it
	// sets up and measures (quiet.go).
	awaitQuiet bool
}

func defaultConfig(w workload, seed int64, seconds float64, trace bool) runConfig {
	return runConfig{
		w: w, seed: seed, seconds: seconds, trace: trace,
		warmup:    time.Second,
		minSetups: 5, maxSetups: 50, setupBudget: time.Second,
		spanPath:   filepath.Join(scratchRoot, "spans-"+w.name+".jsonl"),
		awaitQuiet: true,
	}
}

// result is what one run reports. The last line of standard output is its
// correct/attempted/failed/metrics subset.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     int      `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// WaitedS is how long the run waited for the machine to settle.
	WaitedS float64                `json:"waited_s,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
	// Timing holds the ungated timing metrics of an untraced run.
	Timing map[string]metricValue `json:"timing,omitempty"`
}

// A measured phase is cut into slices of sliceDur. Rates, CPU per report and
// the median latency are computed per slice and the median slice is
// reported: on a shared box a neighbour's burst or a collector cycle spoils a
// few slices, not the median of twenty.
const sliceDur = 500 * time.Millisecond

// tick is the cheap part of the state at a slice boundary.
type tick struct {
	at         int64
	cpu        int64 // ns of process CPU
	handled    int64
	acks       int64
	lifecycles int64
}

func (d *driver) tick() tick {
	t := tick{handled: d.s.handled.Load(), acks: d.c.acks, lifecycles: d.c.lifecycles}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		t.cpu = ru.Utime.Nano() + ru.Stime.Nano()
	}
	t.at = d.now()
	return t
}

// phase is what happened during one measured phase.
type phase struct {
	reports, handled float64
	lifecycles       float64
	allocs, byts     float64
	frames, wire     float64 // frames and bytes on the rings, both directions
	gcCycles         float64
	gcPauseMs        float64
	// Medians over the slices.
	reportsPerS, acksPerS, flowsPerS float64
	cpuUsPerReport                   float64
	loopP50                          float64 // ns
	// loop and late hold the whole phase.
	loop, late *hist
}

// measure drives the workload for dur, in slices, and returns what happened.
func (d *driver) measure(dur time.Duration) phase {
	p := phase{loop: new(hist), late: new(hist)}
	slices := max(int(dur/sliceDur), 1)
	perSlice := make([]hist, slices)
	var rps, aps, fps, cpu, p50 []float64
	var before, after runtime.MemStats
	d.late = p.late
	c0 := d.c
	runtime.ReadMemStats(&before)
	first := d.tick()
	prev := first
	for i := range perSlice {
		d.loop = &perSlice[i]
		d.drive(dur / time.Duration(slices))
		t := d.tick()
		secs := float64(t.at-prev.at) / 1e9
		n := float64(t.handled - prev.handled)
		rps = append(rps, n/secs)
		aps = append(aps, float64(t.acks-prev.acks)/secs)
		fps = append(fps, float64(t.lifecycles-prev.lifecycles)/secs)
		cpu = append(cpu, float64(t.cpu-prev.cpu)/1e3/max(n, 1))
		if perSlice[i].n > 0 {
			p50 = append(p50, perSlice[i].percentile(50))
		}
		p.loop.merge(&perSlice[i])
		prev = t
	}
	runtime.ReadMemStats(&after)
	d.loop, d.late = nil, nil
	p.reports = float64(d.c.reports - c0.reports)
	p.frames = float64(d.c.framesUp + d.c.framesDown - c0.framesUp - c0.framesDown)
	p.wire = float64(d.c.wireBytes - c0.wireBytes)
	p.handled = float64(prev.handled - first.handled)
	p.lifecycles = float64(prev.lifecycles - first.lifecycles)
	p.allocs = float64(after.Mallocs - before.Mallocs)
	p.byts = float64(after.TotalAlloc - before.TotalAlloc)
	p.gcCycles = float64(after.NumGC - before.NumGC)
	p.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	p.reportsPerS, p.acksPerS, p.flowsPerS = medianFloat(rps), medianFloat(aps), medianFloat(fps)
	p.cpuUsPerReport, p.loopP50 = medianFloat(cpu), medianFloat(p50)
	return p
}

// perReport divides by the reports handled in the phase (at least one, so a
// phase that handled nothing reads as one enormous report, not a division
// by zero).
func (p phase) perReport(v float64) float64 { return v / max(p.handled, 1) }

// dpTotals sums datapath.Stats over flows.
type dpTotals struct {
	acks, reports, urgents, installs    int64
	installRejects, sendErrors          int64
	staleCtrl, fallbackOn, unexpectedIn int64
}

func (t *dpTotals) add(s datapath.Stats) {
	t.acks += int64(s.AcksProcessed)
	t.reports += int64(s.ReportsSent + s.VectorsSent)
	t.urgents += int64(s.UrgentsSent)
	t.installs += int64(s.InstallsRecvd)
	t.installRejects += int64(s.InstallRejects)
	t.sendErrors += int64(s.SendErrors)
	t.staleCtrl += int64(s.StaleCtrlDropped)
	t.fallbackOn += int64(s.FallbackOn)
	t.unexpectedIn += int64(s.UnexpectedMsgs)
}

// verify checks the quiesced system: every report sent reached an algorithm,
// nothing was refused, dropped, shed or misrouted, no flow fell back, and
// every window is finite and inside the datapath's clamps. It returns the
// number of failed operations and what they were.
func (d *driver) verify() (failed int64, why []string, dp dpTotals) {
	count := func(n int64, what string) {
		if n < 0 {
			n = -n
		}
		if n != 0 {
			failed += n
			why = append(why, fmt.Sprintf("%s: %d", what, n))
		}
	}
	dp = d.retired
	var inFallback, badCwnd int64
	for i := range d.flows {
		fl := &d.flows[i]
		if fl.ccp == nil {
			continue
		}
		dp.add(fl.ccp.Stats())
		if fl.ccp.FallbackActive() {
			inFallback++
		}
		if w := fl.conn.Cwnd(); w < mss || w > 1<<30 {
			badCwnd++
		}
	}
	rs := d.s.rt.Stats()
	count(int64(rs.Agent.Measurements+rs.Agent.Vectors)-d.c.reports, "reports sent but not measured by the agent")
	count(dp.reports-d.c.reports, "datapath reports not seen by ToAgent")
	count(dp.installRejects, "datapath install rejects")
	count(dp.sendErrors, "datapath send errors")
	count(dp.staleCtrl, "datapath stale control drops")
	count(dp.unexpectedIn, "datapath unexpected messages")
	count(dp.fallbackOn, "datapath fallback entries")
	count(inFallback, "flows in fallback")
	count(badCwnd, "flows with cwnd outside [mss, 1<<30]")
	count(int64(rs.Agent.StaleReports), "agent stale reports")
	count(int64(rs.Agent.UnknownFlowMsg), "agent unknown-flow messages")
	count(int64(rs.Agent.InstallErrs), "agent install errors")
	count(int64(rs.Agent.Errors), "agent errors")
	count(rs.Dropped, "runtime dropped")
	count(rs.ShutdownDropped, "runtime shutdown-dropped")
	count(rs.ReportsShed, "runtime reports shed")
	count(d.c.decodeErrs, "decode errors")
	count(d.c.unknownSID, "decisions for unknown flows")
	count(d.c.installErrs, "InstallErr replies, first: "+d.installErr)
	count(d.c.marshalErrs, "marshal errors")
	count(d.c.recvErrs, "ring receive errors")
	return failed, why, dp
}

// run executes one benchmark run end to end.
func run(cfg runConfig) (result, error) {
	res := result{Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds}
	var tr *tracer
	if cfg.trace {
		res.Trace = 1
		tr = newTracer()
		cfg.minSetups, cfg.maxSetups = 1, 1
	} else if cfg.awaitQuiet {
		waited, err := awaitQuiet()
		if err != nil {
			return res, err
		}
		res.WaitedS = waited.Seconds()
	}

	// Set-up, repeated; the last stack is the one measured.
	var (
		s        *stack
		d        *driver
		setups   []float64
		spent    time.Duration
		setupErr error
	)
	for {
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = newStack(tr); err != nil {
			return res, err
		}
		d = newDriver(cfg.w, cfg.seed, s, tr)
		setupErr = d.setup()
		took := time.Since(t0)
		setups = append(setups, took.Seconds())
		spent += took
		done := len(setups) >= cfg.maxSetups ||
			(len(setups) >= cfg.minSetups && spent >= cfg.setupBudget)
		if setupErr != nil || done {
			break
		}
		s.close()
	}
	defer s.close()
	if setupErr != nil {
		return res, setupErr
	}
	runtime.GC()
	var afterSetup runtime.MemStats
	runtime.ReadMemStats(&afterSetup)

	d.drive(cfg.warmup)

	total := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced phase
	if !cfg.trace {
		plain = d.measure(total)
	} else {
		// Half untraced, half traced, on the same stack: the difference is
		// the tracing overhead, and only the traced half is broken down.
		plain = d.measure(total / 2)
		tr.start(total - total/2)
		traced = d.measure(total - total/2)
		tr.on.Store(false)
	}
	if err := d.quiesce(); err != nil {
		return res, err
	}
	failed, why, dp := d.verify()
	res.Failed, res.Failures, res.Correct = failed, why, failed == 0
	// Stop the agent before reading what its goroutines recorded.
	s.close()

	var ms *metricSet
	if !cfg.trace {
		res.Attempted = attempted(cfg.w, plain)
		ms = newMetricSet(endToEnd)
		ms.set("setup_s", percentileOf(setups, 10))
		ms.set("allocs_per_report", plain.perReport(plain.allocs))
		ms.set("bytes_per_report", plain.perReport(plain.byts))
		ms.set("heap_kb_per_flow", float64(afterSetup.HeapAlloc)/1024/float64(cfg.w.flows))
		ms.set("frames_per_report", plain.perReport(plain.frames))
		ms.set("wire_bytes_per_report", plain.perReport(plain.wire))
		ts := newMetricSet(timing)
		ts.set("loop_p50_us", plain.loopP50/1e3)
		ts.set("reports_per_s", plain.reportsPerS)
		ts.set("acks_per_s", plain.acksPerS)
		ts.set("cpu_us_per_report", plain.cpuUsPerReport)
		var err error
		if res.Timing, err = ts.finish(); err != nil {
			return res, err
		}
	} else {
		res.Attempted = attempted(cfg.w, traced)
		var err error
		if ms, err = d.layerMetrics(cfg, plain, traced, dp); err != nil {
			return res, err
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		res.Failures = append(res.Failures, "nothing was attempted in the measured phase")
	}
	var err error
	res.Metrics, err = ms.finish()
	return res, err
}

// attempted is the number of operations of the measured phase: reports, or
// flow lifecycles when the workload churns.
func attempted(w workload, p phase) int64 {
	if w.closeAfter > 0 {
		return int64(p.lifecycles)
	}
	return int64(p.reports)
}
