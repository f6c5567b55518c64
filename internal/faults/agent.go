package faults

import (
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
	// Delivered counts messages handed to the inner agent (replays and
	// delayed deliveries included).
	Delivered int
	// DroppedDead counts messages that arrived while the agent was dead.
	DroppedDead int
	// Held counts messages captured by a pause; Replayed counts those
	// delivered on resume (the rest died with a Kill, under DroppedOnKill).
	Held          int
	Replayed      int
	DroppedOnKill int
	// Delayed counts messages put through the slow-agent delay.
	Delayed int
}

type heldMsg struct {
	m     proto.Msg
	reply func(proto.Msg) error
}

// AgentInjector wraps the agent with process-level fault modes — pause,
// slowdown, kill/restart — complementing the channel-level Injector: that
// one corrupts the pipe, this one sickens the endpoint. Deliveries held or
// delayed are cloned (proto.Handler only borrows the original), and
// delayed deliveries fire on the supplied schedule function, so under the
// simulator everything stays on the virtual clock and deterministic.
//
// Like Injector, it is not safe for concurrent use: the simulator adapter
// runs on the event loop. Mode changes and message arrivals must come from
// the same scheduling domain.
type AgentInjector struct {
	inner    proto.Handler
	schedule func(time.Duration, func())
	mode     AgentMode
	delay    time.Duration
	held     []heldMsg
	// gen discards in-flight slow deliveries scheduled before a Kill or
	// Restart, the way a dead process loses what was in its input queue.
	gen   uint64
	stats AgentFaultStats
}

// NewAgentInjector wraps inner, scheduling delayed deliveries with schedule
// (the simulator's Schedule in experiments). The injector starts healthy.
func NewAgentInjector(inner proto.Handler, schedule func(time.Duration, func())) *AgentInjector {
	return &AgentInjector{inner: inner, schedule: schedule}
}

// Stats returns a snapshot of the interference counters.
func (a *AgentInjector) Stats() AgentFaultStats { return a.stats }

// Mode returns the current injected health state.
func (a *AgentInjector) Mode() AgentMode { return a.mode }

// HandleMessage implements proto.Handler, applying the current
// fault mode.
func (a *AgentInjector) HandleMessage(m proto.Msg, reply func(proto.Msg) error) {
	switch a.mode {
	case AgentHealthy:
		a.stats.Delivered++
		a.inner.HandleMessage(m, reply)
	case AgentPaused:
		a.stats.Held++
		a.held = append(a.held, heldMsg{m: proto.Clone(m), reply: reply})
	case AgentSlow:
		a.stats.Delayed++
		c := proto.Clone(m)
		gen := a.gen
		a.schedule(a.delay, func() {
			if a.gen != gen || a.mode == AgentDead {
				return // the process died with this still queued
			}
			a.stats.Delivered++
			a.inner.HandleMessage(c, reply)
		})
	case AgentDead:
		a.stats.DroppedDead++
	}
}

// Pause freezes the agent: subsequent messages are held until Resume (or
// lost to a Kill).
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
		a.stats.Delivered++
		a.inner.HandleMessage(h.m, h.reply)
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
func (a *AgentInjector) Restart(inner proto.Handler) {
	a.stats.DroppedOnKill += len(a.held)
	a.held = nil
	a.inner = inner
	a.gen++
	a.mode = AgentHealthy
}
