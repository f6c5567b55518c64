package datapath

import (
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/proto"
)

// This file is the fail-safe layer — the paper's §5 fallback "if the agent
// dies": liveness tracking over the agent's control decisions, entry into the
// in-datapath fallback when the control plane goes stale or the link reports
// the agent gone, and the seamless re-handoff back to CCP control when the
// agent recovers. There is one timer, the staleness watchdog, and one way
// out. The layer:
//
//   - keeps per-kind staleness clocks (virtual time of the last *fresh*
//     Install / SetCwnd / SetRate, acted on or held off by the fallback),
//     so tests and operators can see which half of the control loop died;
//   - probes the agent on every watchdog tick with a heartbeat its runtime
//     echoes, and scores the round trips: a uniformly slow agent keeps its
//     decisions fresh by sequence while each is stale by the clock, and only
//     the probe sees it;
//   - accepts an explicit agent-gone signal from the transport (a broken
//     SocketLink), entering fallback immediately instead of waiting out the
//     staleness budget;
//   - enters fallback conservatively — the flow's window is halved (never
//     below two segments) by replaying the fallback algorithm's own
//     multiplicative decrease, and any stale pacing-rate cap is cleared so
//     the window-based fallback is not throttled by a dead agent's last
//     rate decision;
//   - exits only once the agent has decided for the flow again and the probe
//     score is healthy, via a handoff ramp: the first post-recovery window
//     increase is smoothed over roughly one RTT (the §3 smooth-transition
//     machinery) even when SmoothCwnd is off, so authority returns to the
//     agent without a cwnd discontinuity.
//
// Everything is driven by the configured cc.Clock; with StalenessBudget
// zero (or less) the layer is inert and a silent agent leaves the flow on
// its last decision.

// failsafe is the fail-safe state of one flow: everything the staleness
// watchdog and the fallback keep. A flow has one from New when
// Config.StalenessBudget is set, and otherwise from the first Resync from
// the transport; until then CCP.fs is nil and the flow cannot be in fallback.
type failsafe struct {
	// fallback is the in-datapath controller, made at the first fallback
	// entry (engageFallback) and reused by later ones.
	fallback cc.CongestionControl
	// lastAgentMsg is the virtual time of the last fresh control decision
	// of any kind, which the watchdog measures silence from; the per-kind
	// clocks beside it (Install / SetCwnd / SetRate) feed Staleness only.
	lastAgentMsg  time.Duration
	lastInstallAt time.Duration
	lastCwndAt    time.Duration
	lastRateAt    time.Duration
	agentGone     bool
	// decided is set by the first fresh decision after entry that arrives
	// while the link is up, the agent's proof that it holds the flow again;
	// exit waits for it (mayExit).
	decided   bool
	liveTimer cc.Timer
	// handoffUntil, when nonzero, smooths window increases until the
	// post-fallback handoff ramp expires.
	handoffUntil time.Duration
	// Heartbeat probing: score is the agent's health by its echoes, with a
	// limit of twice the budget (probeLimit). scratchHB is the probe handed to
	// ToAgent, valid for that call (Config.ToAgent).
	score     proto.ProbeScore
	scratchHB proto.Heartbeat

	n failsafeCounts
}

// failsafeCounts is the fail-safe layer's part of Stats.
type failsafeCounts struct {
	FallbackOn       int
	FallbackOff      int
	Resyncs          int
	LivenessStale    int
	AgentGoneSignals int
	HandoffRamps     int
	ProbesSent       int
	ProbeEchoes      int
	ProbeExits       int
}

// failsafeOn reports whether the layer is on: a positive StalenessBudget,
// the one test New, the watchdog and the echo handler all ask.
func (d *CCP) failsafeOn() bool { return d.cfg.StalenessBudget > 0 }

// failsafe returns the flow's fail-safe state, making it on first use.
func (d *CCP) failsafe() *failsafe {
	if d.fs == nil {
		d.fs = &failsafe{}
	}
	return d.fs
}

// The layer's fixed parameters.
const (
	// livenessChecksPerBudget is how many times per StalenessBudget the
	// watchdog ticks (never more often than livenessMinCheck): each tick
	// sends a probe and evaluates entry, so entry comes at most a quarter of
	// a budget late, and a flow in fallback re-announces itself to a
	// restarted agent at the same cadence.
	livenessChecksPerBudget = 4
	livenessMinCheck        = time.Millisecond
	// handoffRtts is the length of the exit ramp in round trips. One is the
	// horizon §3 smoothing already spreads a window increase over: long
	// enough that re-handoff causes no burst, short enough that the agent's
	// first decision is in force by its second.
	handoffRtts = 1
	// exitLatencyFraction sets the exit threshold of the probe hysteresis
	// band as a fraction of StalenessBudget: once in fallback, the flow
	// returns to agent control only when the probe EWMA is below half the
	// budget it entered at, so a marginally slow agent converges to one
	// clean fallback entry instead of flapping in and out.
	exitLatencyFraction = 0.5
)

// AgentGone tells the datapath the transport has lost (gone=true) or
// re-established (gone=false) the agent connection. With the fail-safe layer
// disabled this is a no-op. A gone signal enters fallback immediately; a
// back signal alone does not exit fallback — that takes mayExit's proof that
// the control loop is closed again.
func (d *CCP) AgentGone(gone bool) {
	if !d.failsafeOn() || gone == d.fs.agentGone {
		return
	}
	d.fs.agentGone = gone
	if gone {
		d.fs.n.AgentGoneSignals++
		if !d.fallbackActive {
			d.enterFallback(false)
		}
	}
}

// touchCtrl records a fresh control decision of kind t for the
// staleness clocks, then feeds the shared liveness state. A flow with no
// fail-safe state has no clock to reset and no fallback to leave.
func (d *CCP) touchCtrl(t proto.MsgType) {
	fs := d.fs
	if fs == nil {
		return
	}
	now := d.cfg.Clock.Now()
	switch t {
	case proto.TypeInstall:
		fs.lastInstallAt = now
	case proto.TypeSetCwnd:
		fs.lastCwndAt = now
	case proto.TypeSetRate:
		fs.lastRateAt = now
	}
	if d.fallbackActive && !fs.agentGone {
		fs.decided = true
	}
	d.touchAgent()
}

// touchAgent resets the silence clock and exits fallback if mayExit allows.
func (d *CCP) touchAgent() {
	d.fs.lastAgentMsg = d.cfg.Clock.Now()
	if d.mayExit() {
		d.exitFallback()
	}
}

// mayExit is the one exit rule. The flow is in fallback, the transport does
// not report the agent gone, a fresh decision has arrived since entry, and
// the probe score is back inside the exit band; the last of these to come
// true, a decision or an echo, takes the flow out. Each guards a case of its
// own: a straggling queued decision while the link is down; an agent whose
// runtime answers probes but whose flow decides nothing (a restarted agent
// that has not taken the flow's Create, or a control channel that loses what
// it sends); and a slow agent's late-but-sequenced decisions, which would
// otherwise flap the flow out of fallback at every one.
func (d *CCP) mayExit() bool {
	fs := d.fs
	return d.fallbackActive && !fs.agentGone && fs.decided && d.probeHealthy()
}

// armFailsafe starts the staleness watchdog from Init; silence is measured
// from now.
func (d *CCP) armFailsafe() {
	if !d.failsafeOn() {
		return
	}
	fs, now := d.fs, d.cfg.Clock.Now()
	fs.lastAgentMsg, fs.lastInstallAt, fs.lastCwndAt, fs.lastRateAt = now, now, now, now
	d.scheduleLiveness()
}

// stopFailsafe cancels the watchdog when the flow closes.
func (d *CCP) stopFailsafe() {
	if fs := d.fs; fs != nil {
		stopTimer(&fs.liveTimer)
	}
}

// probeLimit clamps the score's samples at twice the budget, so a long
// outage saturates the score instead of poisoning the post-heal decay.
func (d *CCP) probeLimit() float64 { return 2 * d.cfg.StalenessBudget.Seconds() }

// probeHealthy reports whether the EWMA latency is inside the exit band.
func (d *CCP) probeHealthy() bool {
	lat, ok := d.fs.score.Score()
	return ok && lat < exitLatencyFraction*d.cfg.StalenessBudget.Seconds()
}

// handleHeartbeat processes an echoed probe: measure the round trip, clear
// the unanswered-probe tracker, and exit fallback if the score has recovered
// and the agent has decided since entry. Echoes are advisory — they never
// reset the control staleness clocks.
func (d *CCP) handleHeartbeat(v *proto.Heartbeat) {
	if !d.failsafeOn() {
		d.n.UnexpectedMsgs++
		return
	}
	fs := d.fs
	fs.n.ProbeEchoes++
	fs.score.Echo(v.Seq, (d.cfg.Clock.Now() - secsToDur(v.SentAt)).Seconds(), d.probeLimit())
	if d.mayExit() {
		fs.n.ProbeExits++
		// touchAgent applies the exit (resetting the staleness clock too, so
		// the budget does not immediately re-trip on the pre-outage
		// lastAgentMsg).
		d.touchAgent()
	}
}

// scheduleLiveness runs the staleness watchdog, the layer's one timer and
// the one timer-driven way into fallback. Each tick sends a fresh probe (the
// score folds in the age of the oldest still-unanswered one, so a dead or
// paused agent drives it up even though no echoes arrive), then enters
// fallback if the agent is gone, no fresh decision has arrived for the
// budget, or the probe score is slower than the budget. That last is the
// blind-spot case: decisions still arrive at the normal cadence, but every
// round trip is slower than the budget, so the flow is effectively
// uncontrolled. Probes keep flowing while in fallback: after a heal the
// agent's decision may come first, and the echo that brings the score back
// into the exit band then takes the flow out (handleHeartbeat).
func (d *CCP) scheduleLiveness() {
	fs, budget := d.fs, d.cfg.StalenessBudget
	every := max(budget/livenessChecksPerBudget, livenessMinCheck)
	fs.liveTimer = d.cfg.Clock.AfterFunc(every, func() {
		now := d.cfg.Clock.Now()
		seq, _ := fs.score.Probe(now, d.probeLimit())
		fs.n.ProbesSent++
		fs.scratchHB = proto.Heartbeat{SID: d.cfg.SID, Seq: seq, SentAt: now.Seconds()}
		d.send(&fs.scratchHB)
		lat, scored := fs.score.Score()
		if !d.fallbackActive && (fs.agentGone || now-fs.lastAgentMsg > budget ||
			scored && lat > budget.Seconds()) {
			d.enterFallback(!fs.agentGone)
		}
		if d.fallbackActive {
			// Re-announce the flow every tick while degraded: a restarted
			// agent has no state for it and needs the Create to re-adopt it.
			d.Resync()
		}
		d.scheduleLiveness()
	})
}

// engageFallback is what entry starts with: mark the flow, count the entry,
// stop the program's wait. It returns the in-datapath controller, made here
// the first time a flow needs one, for enterFallback to Init.
func (d *CCP) engageFallback() cc.CongestionControl {
	fs := d.fs
	d.fallbackActive = true
	fs.decided = false
	fs.n.FallbackOn++
	stopTimer(&d.waitTimer)
	if fs.fallback == nil {
		fs.fallback = cc.NewNewReno()
	}
	return fs.fallback
}

// enterFallback hands the flow to the in-datapath algorithm. stale records
// whether the trigger was budget exhaustion (vs. an explicit gone signal).
func (d *CCP) enterFallback(stale bool) {
	fallback := d.engageFallback()
	if stale {
		d.fs.n.LivenessStale++
	}
	// Cancel any in-flight smoothing ramp; the fallback owns the window now.
	d.cancelRamp()
	d.fs.handoffUntil = 0
	if d.host != nil {
		// The dead agent's last pacing cap must not throttle the fallback.
		d.host.SetPacingRate(0)
		fallback.Init(d.host)
		// Conservative entry: replay the fallback's own multiplicative
		// decrease, halving cwnd (floor two segments) and starting it in
		// congestion avoidance rather than slow-starting from the stale
		// window.
		fallback.OnCongestion(d.host, cc.EventECN, 0)
	}
}

// exitFallback returns authority to the agent once mayExit allows. The
// installed program restarts from the top, and the transition is smoothed
// by a handoff ramp.
func (d *CCP) exitFallback() {
	d.fallbackActive = false
	d.fs.n.FallbackOff++
	d.fs.n.HandoffRamps++
	d.fs.handoffUntil = d.cfg.Clock.Now() + d.rttDur(handoffRtts)
	d.pc = 0
	d.waitedPass = false
	d.resume()
}

// handingOff reports whether the flow is inside its post-fallback handoff
// window, during which window increases ramp even without SmoothCwnd.
func (d *CCP) handingOff() bool {
	fs := d.fs
	if fs == nil || fs.handoffUntil == 0 {
		return false
	}
	if d.cfg.Clock.Now() < fs.handoffUntil {
		return true
	}
	fs.handoffUntil = 0
	return false
}

// Resync re-announces the flow to the agent, carrying the newest applied
// control sequence so the agent resumes numbering above it instead of
// looking stale.
func (d *CCP) Resync() {
	if d.host == nil {
		return
	}
	d.failsafe().n.Resyncs++
	d.announce(d.lastCtrlSeq)
}

// announce sends the flow's Create: Init's first announcement with seq 0, a
// Resync's with the newest control sequence applied. It carries the flow's
// *current* window (not the original one), so a restarted agent starts from
// live state.
func (d *CCP) announce(seq uint32) {
	d.send(&proto.Create{
		SID:      d.cfg.SID,
		MSS:      uint32(d.host.MSS()),
		InitCwnd: uint32(d.host.Cwnd()),
		Seq:      seq,
		Alg:      d.cfg.Alg,
	})
}
