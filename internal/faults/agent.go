package faults

import (
	"bytes"
	"slices"
	"time"

	"github.com/ccp-repro/ccp/internal/proto"
)

// AgentMode is the injected health state of the agent process.
type AgentMode int

// Agent health states.
const (
	// AgentHealthy passes messages through synchronously and untouched; a
	// healthy injector in the path is bit-identical to no injector.
	AgentHealthy AgentMode = iota
	// AgentPaused models a stopped-but-alive process (SIGSTOP, GC pause, a
	// wedged scheduler): messages are held in arrival order and replayed
	// when the agent resumes.
	AgentPaused
	// AgentSlow models an overloaded process: every message is delivered
	// after a fixed processing delay.
	AgentSlow
	// AgentDead models a killed process: messages vanish, as does anything
	// a pause was holding.
	AgentDead
)

func (m AgentMode) String() string {
	switch m {
	case AgentHealthy:
		return "healthy"
	case AgentPaused:
		return "paused"
	case AgentSlow:
		return "slow"
	}
	return "dead"
}

// AgentFaultStats counts the injector's interference.
type AgentFaultStats struct {
	// Delivered counts messages handed to the inner agent and taken by it
	// (replays and delayed deliveries included; a frame it refused to decode
	// is not one).
	Delivered int
	// DroppedDead counts messages that arrived while the agent was dead.
	DroppedDead int
	// Held counts messages captured by a pause, a delayed delivery that came
	// due during one included; Replayed counts those delivered on resume (the
	// rest died with a Kill, under DroppedOnKill).
	Held          int
	Replayed      int
	DroppedOnKill int
	// Delayed counts messages put through the slow-agent delay.
	Delayed int
}

// heldFrame is a frame a pause holds: its own copy of the bytes, the reply it
// came with, and its place in arrival order.
type heldFrame struct {
	frame []byte
	reply func(proto.Msg) error
	n     uint64
}

// AgentInjector wraps the agent with process-level fault modes — pause,
// slowdown, kill/restart — complementing the channel-level Injector: that
// one corrupts the pipe, this one sickens the endpoint. It takes the agent's
// input as frames, the way the agent does (runtime.Runtime.HandleFrame).
// A frame held or delayed is a byte copy (the caller only lends the
// original), and delayed deliveries fire on the supplied schedule function,
// so under the simulator everything stays on the virtual clock and
// deterministic. A frame the agent would refuse is refused only when it is
// delivered: the caller learns of it (HandleFrame's error) only in healthy
// pass-through.
//
// Like Injector, it is not safe for concurrent use: the simulator adapter
// runs on the event loop. Mode changes and message arrivals must come from
// the same scheduling domain.
type AgentInjector struct {
	inner    func(frame []byte, reply func(proto.Msg) error) error
	schedule func(time.Duration, func())
	mode     AgentMode
	delay    time.Duration
	held     []heldFrame
	arrivals uint64 // frames handed to HandleFrame, numbering held ones
	// gen discards in-flight slow deliveries scheduled before a Kill or
	// Restart, the way a dead process loses what was in its input queue.
	gen   uint64
	stats AgentFaultStats
}

// NewAgentInjector wraps inner, scheduling delayed deliveries with schedule
// (the simulator's Schedule in experiments). The injector starts healthy.
func NewAgentInjector(inner func(frame []byte, reply func(proto.Msg) error) error, schedule func(time.Duration, func())) *AgentInjector {
	return &AgentInjector{inner: inner, schedule: schedule}
}

// Stats returns a snapshot of the interference counters.
func (a *AgentInjector) Stats() AgentFaultStats { return a.stats }

// Mode returns the current injected health state.
func (a *AgentInjector) Mode() AgentMode { return a.mode }

// HandleFrame takes one frame bound for the agent, which it only borrows,
// and applies the current fault mode. It returns inner's error in healthy
// pass-through and nil otherwise.
func (a *AgentInjector) HandleFrame(frame []byte, reply func(proto.Msg) error) error {
	a.arrivals++
	switch a.mode {
	case AgentHealthy:
		return a.deliver(frame, reply)
	case AgentPaused:
		a.hold(heldFrame{frame: bytes.Clone(frame), reply: reply, n: a.arrivals})
	case AgentSlow:
		a.stats.Delayed++
		h := heldFrame{frame: bytes.Clone(frame), reply: reply, n: a.arrivals}
		gen := a.gen
		a.schedule(a.delay, func() {
			switch {
			case a.gen != gen || a.mode == AgentDead:
				// the process died with this still queued
			case a.mode == AgentPaused:
				a.hold(h) // it came due on a stopped process
			default:
				a.deliver(h.frame, h.reply)
			}
		})
	case AgentDead:
		a.stats.DroppedDead++
	}
	return nil
}

// deliver hands frame to the inner agent, counting it delivered if taken.
func (a *AgentInjector) deliver(frame []byte, reply func(proto.Msg) error) error {
	err := a.inner(frame, reply)
	if err == nil {
		a.stats.Delivered++
	}
	return err
}

// hold keeps h for Resume, in arrival order among the frames held.
func (a *AgentInjector) hold(h heldFrame) {
	a.stats.Held++
	i := len(a.held)
	for i > 0 && a.held[i-1].n > h.n {
		i--
	}
	a.held = slices.Insert(a.held, i, h)
}

// Pause freezes the agent: subsequent messages, and delayed ones that come
// due, are held until Resume (or lost to a Kill).
func (a *AgentInjector) Pause() { a.mode = AgentPaused }

// Resume unfreezes a paused agent, synchronously replaying held messages in
// arrival order. A no-op in other modes.
func (a *AgentInjector) Resume() {
	if a.mode != AgentPaused {
		return
	}
	a.mode = AgentHealthy
	held := a.held
	a.held = nil
	for _, h := range held {
		a.stats.Replayed++
		a.deliver(h.frame, h.reply)
	}
}

// SlowDown makes every delivery take d; d <= 0 restores healthy passthrough.
// Held messages from a prior pause are replayed first (slow, not stopped).
func (a *AgentInjector) SlowDown(d time.Duration) {
	if d <= 0 {
		a.Resume()
		a.mode = AgentHealthy
		return
	}
	a.Resume()
	a.mode = AgentSlow
	a.delay = d
}

// Kill drops the agent dead: held and in-flight-delayed messages are lost,
// and new ones vanish until Restart.
func (a *AgentInjector) Kill() {
	a.stats.DroppedOnKill += len(a.held)
	a.held = nil
	a.gen++
	a.mode = AgentDead
}

// Restart brings the agent back as inner — a *fresh* instance when modeling
// a process restart (no flow state survives a real crash), a standby
// promoted by the supervisor, or the same one to model a brief hang the
// supervisor resolved. The injector returns to healthy passthrough.
// Anything a pause was holding dies with the replaced process (replaying it
// into the replacement would deliver another agent's backlog out of order).
func (a *AgentInjector) Restart(inner func(frame []byte, reply func(proto.Msg) error) error) {
	a.stats.DroppedOnKill += len(a.held)
	a.held = nil
	a.inner = inner
	a.gen++
	a.mode = AgentHealthy
}
