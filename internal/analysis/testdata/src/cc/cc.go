// Package cc is the analysistest corpus for the simdeterminism analyzer over
// the host surface package: its import path ends in "cc", putting it in
// scope. The cases mirror the hazards of the package that holds the
// simulator's Clock and Timer and the fallback Reno: a clock or a controller
// that reads the host's time, entropy or scheduler would make every
// simulated run that uses them unrepeatable.
package cc

import (
	"math/rand"
	"time"
)

type Timer interface{ Stop() bool }

type Host interface {
	Cwnd() int
	SetCwnd(bytes int)
}

// --- positive cases ---

// wallClock is a Clock that reads the host.
type wallClock struct{ epoch time.Time }

func (c wallClock) Now() time.Duration {
	return time.Since(c.epoch) // want `time.Since reads the wall clock`
}

func (c wallClock) AfterFunc(d time.Duration, fn func()) Timer {
	return time.AfterFunc(d, fn) // want `time.AfterFunc reads the wall clock`
}

// goClock fires its timers on goroutines of their own.
type goClock struct{}

func (goClock) AfterFunc(d time.Duration, fn func()) {
	go fn() // want `goroutine spawn in deterministic package`
}

// jitteryReno randomizes its decrease from the global source.
type jitteryReno struct{ ssthresh int }

func (r *jitteryReno) OnLoss(h Host) {
	r.ssthresh = h.Cwnd() / (2 + rand.Intn(2)) // want `global rand.Intn`
	h.SetCwnd(r.ssthresh)
}

// --- negative cases ---

// stepClock moves only when stepped: time comes from its caller.
type stepClock struct{ now time.Duration }

func (c *stepClock) Now() time.Duration      { return c.now }
func (c *stepClock) Step(d time.Duration)    { c.now += d }
func (c *stepClock) Deadline() time.Duration { return c.now + 200*time.Millisecond }

// seededReno draws from an explicitly seeded source.
type seededReno struct {
	rng      *rand.Rand
	ssthresh int
}

func newSeededReno(seed int64) *seededReno {
	return &seededReno{rng: rand.New(rand.NewSource(seed))}
}

func (r *seededReno) OnLoss(h Host) {
	r.ssthresh = max(h.Cwnd()/2, 2*1448+r.rng.Intn(2))
	h.SetCwnd(r.ssthresh)
}
