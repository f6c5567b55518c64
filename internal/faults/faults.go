// Package faults is a seeded, deterministic fault-injection engine for the
// agent↔datapath channel. The paper's §5 safety argument — the datapath
// must survive a misbehaving or dead agent — is only as strong as the
// adversity it has been tested under; this package supplies that adversity
// as a first-class subsystem: per-direction drop, delay-jitter, reorder,
// duplicate, and corrupt faults applied to marshalled wire messages, and
// (AgentInjector) pause, slowdown, kill and restart of the agent process.
//
// An Injector stands on the simulator's IPC bridge through Tap, so whole
// experiments run under faults on the virtual clock: bit-identical across
// runs with the same seed, and bit-identical to the fault-free path when
// the plan is zero, because a zero direction is not tapped at all.
//
// All fate decisions draw from a single *rand.Rand in a fixed order
// (drop, corrupt, duplicate, then per-copy jitter and reorder), so a run is
// a pure function of the seed and the message sequence.
package faults

import (
	"math/rand"
	"time"

	"github.com/ccp-repro/ccp/internal/bridge"
)

// Dir names a channel direction.
type Dir int

// Channel directions.
const (
	// ToAgent is the datapath→agent direction (measurements, urgents).
	ToAgent Dir = iota
	// ToDatapath is the agent→datapath direction (installs, set-cwnd/rate).
	ToDatapath
)

func (d Dir) String() string {
	if d == ToAgent {
		return "to-agent"
	}
	return "to-datapath"
}

// DirPlan is the fault intensity for one direction. All rates are
// probabilities in [0, 1], applied per message.
type DirPlan struct {
	// Drop loses the message entirely.
	Drop float64
	// Corrupt mutates the marshalled bytes (bit flips, truncation, or
	// extension). A corrupted message that no longer decodes is discarded
	// at the receiving end — exactly what a hardened decoder must do.
	Corrupt float64
	// Duplicate delivers the message twice.
	Duplicate float64
	// Reorder holds the message for 4×Jitter (1ms when Jitter is zero) so
	// later messages overtake it.
	Reorder float64
	// Jitter adds a uniform extra delay in [0, Jitter) to every delivery.
	Jitter time.Duration
}

// Zero reports whether the plan injects nothing. A zero plan is guaranteed
// not to consume randomness or alter delivery timing, so behaviour is
// bit-identical to an unwrapped channel.
func (p DirPlan) Zero() bool {
	return p.Drop == 0 && p.Corrupt == 0 && p.Duplicate == 0 &&
		p.Reorder == 0 && p.Jitter == 0
}

func (p DirPlan) reorderDelay() time.Duration {
	if p.Jitter > 0 {
		return 4 * p.Jitter
	}
	return time.Millisecond
}

// Plan is a full bidirectional fault plan.
type Plan struct {
	ToAgent    DirPlan
	ToDatapath DirPlan
}

// Uniform builds a plan with every fault kind at rate in both directions
// and the given delay jitter — the chaos-sweep knob.
func Uniform(rate float64, jitter time.Duration) Plan {
	d := DirPlan{Drop: rate, Corrupt: rate, Duplicate: rate, Reorder: rate, Jitter: jitter}
	return Plan{ToAgent: d, ToDatapath: d}
}

func (p *Plan) dir(d Dir) *DirPlan {
	if d == ToAgent {
		return &p.ToAgent
	}
	return &p.ToDatapath
}

// DirStats counts one direction's injected faults. A direction with a zero
// plan has no tap (Tap), so nothing on it is counted.
type DirStats struct {
	// Delivered counts copies handed to the receiver (duplicates count
	// twice; corrupted-but-delivered copies count too).
	Delivered  int
	Dropped    int
	Corrupted  int
	Duplicated int
	Reordered  int
	// DecodeKilled counts corrupted messages the receiver's decoder
	// rejected (reported by the bridge through the tap's Killed).
	DecodeKilled int
}

// Stats is the per-direction fault accounting.
type Stats struct {
	ToAgent    DirStats
	ToDatapath DirStats
}

// Total sums both directions.
func (s Stats) Total() DirStats {
	a, b := s.ToAgent, s.ToDatapath
	return DirStats{
		Delivered:    a.Delivered + b.Delivered,
		Dropped:      a.Dropped + b.Dropped,
		Corrupted:    a.Corrupted + b.Corrupted,
		Duplicated:   a.Duplicated + b.Duplicated,
		Reordered:    a.Reordered + b.Reordered,
		DecodeKilled: a.DecodeKilled + b.DecodeKilled,
	}
}

func (s *Stats) dir(d Dir) *DirStats {
	if d == ToAgent {
		return &s.ToAgent
	}
	return &s.ToDatapath
}

// Injector decides the fate of messages under a Plan. It is not safe for
// concurrent use: its taps run on the simulator's event loop.
type Injector struct {
	plan     Plan
	rng      *rand.Rand
	schedule func(time.Duration, func())
	stats    Stats
}

// NewInjector builds an injector drawing randomness from rng and scheduling
// delayed deliveries with schedule (the simulator's Schedule).
func NewInjector(plan Plan, rng *rand.Rand, schedule func(time.Duration, func())) *Injector {
	return &Injector{plan: plan, rng: rng, schedule: schedule}
}

// Stats returns a snapshot of the fault counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// Tap puts the injector on one direction of a bridge connection's wire
// (bridge.Bridge.Connect); nil when the direction's plan is zero, so that no
// fault can touch the bytes, no delivery outlives the send and the pooled
// frame crosses uncopied. The injector's deliveries may outlive the call or
// happen twice, and the frame is the bridge's pooled buffer, so the bytes
// are copied out of it once.
func (inj *Injector) Tap(dir Dir) *bridge.Tap {
	if inj.plan.dir(dir).Zero() {
		return nil
	}
	return &bridge.Tap{
		Carry: func(frame []byte, next func([]byte)) {
			inj.Apply(dir, append([]byte(nil), frame...), next)
		},
		Killed: func() { inj.stats.dir(dir).DecodeKilled++ },
	}
}

// Apply decides the fate of one marshalled message travelling in dir and
// invokes deliver zero, one, or two times — possibly later, via schedule.
// deliver owns the slice it receives. A zero plan delivers synchronously
// without consuming randomness.
func (inj *Injector) Apply(dir Dir, data []byte, deliver func([]byte)) {
	p := inj.plan.dir(dir)
	st := inj.stats.dir(dir)
	if p.Zero() {
		st.Delivered++
		deliver(data)
		return
	}
	if inj.rng.Float64() < p.Drop {
		st.Dropped++
		return
	}
	if inj.rng.Float64() < p.Corrupt {
		data = corrupt(inj.rng, data)
		st.Corrupted++
	}
	copies := 1
	if inj.rng.Float64() < p.Duplicate {
		copies = 2
		st.Duplicated++
	}
	for c := 0; c < copies; c++ {
		var delay time.Duration
		if p.Jitter > 0 {
			delay += time.Duration(inj.rng.Int63n(int64(p.Jitter)))
		}
		if inj.rng.Float64() < p.Reorder {
			delay += p.reorderDelay()
			st.Reordered++
		}
		st.Delivered++
		if delay <= 0 {
			deliver(data)
			continue
		}
		msg := data
		inj.schedule(delay, func() { deliver(msg) })
	}
}

// corrupt returns a mutated copy of data: bit flips, truncation, or random
// extension, chosen and positioned by rng. The input is never modified.
func corrupt(rng *rand.Rand, data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	switch rng.Intn(3) {
	case 0: // flip 1–4 bytes
		if len(out) == 0 {
			return append(out, byte(rng.Intn(256)))
		}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
		}
	case 1: // truncate
		out = out[:rng.Intn(len(out)+1)]
	default: // extend with junk
		for n := 1 + rng.Intn(8); n > 0; n-- {
			out = append(out, byte(rng.Intn(256)))
		}
	}
	return out
}
