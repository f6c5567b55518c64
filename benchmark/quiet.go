package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The box this benchmark is gated on is shared, and every so often it runs
// 20-45% slower for one to four minutes at a stretch (see README, "Spread").
// A run is a quarter of a minute, so such a stretch swallows a workload's
// runs whole: no statistic inside a run can see it, and three slow runs in
// ten put the interquartile range over any bound. What can see it is the
// run before: each untraced run first times a short probe — always the same
// small closed-loop workload, on a throw-away stack — and compares it with
// the probes earlier runs in this checkout left behind. If the probe is well under their usual speed the run
// waits, re-probing every few seconds, until the machine has settled or a
// cap is reached — and only then sets up and measures. Nothing measured is
// adjusted; the benchmark just declines to measure on a machine it can tell
// is disturbed, and says how long it waited.

const (
	probeDur = 500 * time.Millisecond
	// quietShare: a probe under this share of the reference is disturbed.
	// Probes of a settled machine scatter by about ±10%.
	quietShare = 0.80
	// quietHistory probes are remembered; the reference is their upper
	// quartile, so it takes a dozen slow runs in a row to drag it down, and
	// quietMinKnown before there is a reference at all.
	quietHistory  = 16
	quietMinKnown = 4
	quietPause    = 5 * time.Second
	// quietRunCap keeps a run that waits well inside the 180 s a run may
	// take; quietTotalCap keeps a whole session of runs inside its hour.
	quietRunCap   = 120 * time.Second
	quietTotalCap = 800 * time.Second
)

// probeWorkload is what every probe runs, whatever workload the run is
// about to measure: it is the machine that is being probed. Every report is
// answered by an Install, so the probe leans on allocation, the collector
// and cross-goroutine hand-offs the way the measured workloads do — a slow
// stretch that halves reinstall's throughput slows a bare arithmetic loop by
// a tenth.
var probeWorkload = workload{
	name:          "probe",
	flows:         256,
	algs:          []string{"cubic", "vegas"},
	acksPerReport: 8,
}

// quietState is what runs in one checkout tell each other.
type quietState struct {
	Speeds  []float64 `json:"speeds"`   // recent probe speeds, reports/s
	WaitedS float64   `json:"waited_s"` // total spent waiting, all runs
}

func quietPath() string { return filepath.Join(scratchRoot, "quiet.json") }

// loadQuiet reads the state; a missing or unreadable file is an empty state,
// which means no waiting.
func loadQuiet() quietState {
	var q quietState
	if b, err := os.ReadFile(quietPath()); err == nil {
		if json.Unmarshal(b, &q) != nil {
			q = quietState{}
		}
	}
	return q
}

func (q *quietState) save() error {
	b, err := json.Marshal(q)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	return os.WriteFile(quietPath(), b, 0o644)
}

// reference is the upper quartile of the remembered probes.
func (q *quietState) reference() (float64, bool) {
	if len(q.Speeds) < quietMinKnown {
		return 0, false
	}
	return percentileOf(q.Speeds, 75), true
}

func (q *quietState) record(speed float64) {
	q.Speeds = append(q.Speeds, speed)
	if len(q.Speeds) > quietHistory {
		q.Speeds = q.Speeds[len(q.Speeds)-quietHistory:]
	}
}

// mayWait reports whether a run that has waited for waited so far should
// wait on: the probe is under quietShare of a known reference and neither
// cap is reached.
func (q *quietState) mayWait(speed float64, waited time.Duration) bool {
	ref, known := q.reference()
	return known && speed < quietShare*ref &&
		waited < quietRunCap &&
		q.WaitedS+waited.Seconds() < quietTotalCap.Seconds()
}

// probe drives the probe workload for probeDur and returns reports handled
// per second.
func (d *driver) probe() float64 {
	h0, t0 := d.s.handled.Load(), d.now()
	d.drive(probeDur)
	return float64(d.s.handled.Load()-h0) / (float64(d.now()-t0) / 1e9)
}

// awaitQuiet probes the machine on a throw-away stack and waits while it
// looks disturbed. It returns how long it waited.
func awaitQuiet() (time.Duration, error) {
	s, err := newStack(nil)
	if err != nil {
		return 0, err
	}
	defer s.close()
	d := newDriver(probeWorkload, 1, s, nil)
	if err := d.setup(); err != nil {
		return 0, err
	}
	q := loadQuiet()
	var waited time.Duration
	d.drive(probeDur) // so that the first probe is as warm as a later one
	speed := d.probe()
	for q.mayWait(speed, waited) {
		time.Sleep(quietPause)
		waited += quietPause
		speed = d.probe()
	}
	q.record(speed)
	q.WaitedS += waited.Seconds()
	return waited, q.save()
}
