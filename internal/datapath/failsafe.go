package datapath

import (
	"time"

	"github.com/ccp-repro/ccp/internal/nativecc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// This file is the fail-safe layer — the paper's §5 fallback "if the agent
// dies": liveness tracking over the agent's control decisions, entry into the
// in-datapath fallback when the control plane goes stale or the link reports
// the agent gone, and the seamless re-handoff back to CCP control when the
// agent recovers. There is one way in and one way out. The layer:
//
//   - keeps per-kind staleness clocks (virtual time of the last *applied*
//     Install / SetCwnd / SetRate), so tests and operators can see which
//     half of the control loop died;
//   - accepts an explicit agent-gone signal from the transport (a broken
//     SocketLink), entering fallback immediately instead of waiting out the
//     staleness budget;
//   - enters fallback conservatively — the flow's window is halved (never
//     below two segments) by replaying the fallback algorithm's own
//     multiplicative decrease, and any stale pacing-rate cap is cleared so
//     the window-based fallback is not throttled by a dead agent's last
//     rate decision;
//   - exits via a handoff ramp: the first post-recovery window increase is
//     smoothed over roughly one RTT (the §3 smooth-transition machinery)
//     even when SmoothCwnd is off, so authority returns to the agent
//     without a cwnd discontinuity.
//
// Everything is driven by the configured netsim.Clock; with LivenessConfig
// zero the layer is inert and a silent agent leaves the flow on its last
// decision.

// failsafe is the fail-safe state of one flow: everything the staleness
// watchdog, the probe loop and the fallback keep. A flow has one from New
// when Config.Liveness is set, and otherwise from the first Resync from the
// transport; until then CCP.fs is nil and the flow cannot be in fallback.
type failsafe struct {
	// fallback is the in-datapath controller, made at the first fallback
	// entry (engageFallback) and reused by later ones.
	fallback tcp.CongestionControl
	// lastAgentMsg is the virtual time of the last applied control decision
	// of any kind, which the watchdog measures silence from; the per-kind
	// clocks beside it (Install / SetCwnd / SetRate) feed Staleness only.
	lastAgentMsg  time.Duration
	lastInstallAt time.Duration
	lastCwndAt    time.Duration
	lastRateAt    time.Duration
	agentGone     bool
	liveTimer     netsim.Timer
	// handoffUntil, when nonzero, smooths window increases until the
	// post-fallback handoff ramp expires.
	handoffUntil time.Duration
	// Heartbeat probe health scoring: EWMA of probe round-trip latency in
	// seconds, plus the oldest still-unanswered probe so silence degrades the
	// score between echoes. scratchHB is the probe handed to ToAgent, valid
	// for that call (Config.ToAgent).
	probeTimer   netsim.Timer
	probeSeq     uint32
	probeEWMA    float64
	probeSamples int
	unechoedSeq  uint32
	unechoedAt   time.Duration
	haveUnechoed bool
	scratchHB    proto.Heartbeat

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

// failsafe returns the flow's fail-safe state, making it on first use.
func (d *CCP) failsafe() *failsafe {
	if d.fs == nil {
		d.fs = &failsafe{}
	}
	return d.fs
}

// LivenessConfig configures the fail-safe layer for one flow. The zero
// value disables it: the flow then has no watchdog and no fallback.
type LivenessConfig struct {
	// StalenessBudget is how long the flow may run without a fresh applied
	// control decision (Install, SetCwnd, SetRate) before the datapath
	// assumes the agent is sick and enters fallback. 0 disables the
	// liveness layer entirely.
	StalenessBudget time.Duration
	// ProbeInterval enables heartbeat probing: every interval the datapath
	// sends a proto.Heartbeat that a healthy agent echoes, and the measured
	// request→response latency feeds an EWMA health score with enter/exit
	// hysteresis. This closes the staleness budget's blind spot — a
	// *uniformly slow* agent is a pipeline, so its decisions arrive at the
	// normal cadence (staleness never trips) while every decision is based
	// on stale state; only a round-trip probe sees the true lag. 0 disables
	// probing, leaving the budget-only behaviour bit-identical.
	ProbeInterval time.Duration
}

func (lc LivenessConfig) on() bool { return lc.StalenessBudget > 0 }

func (lc LivenessConfig) probesOn() bool { return lc.on() && lc.ProbeInterval > 0 }

// The layer's fixed parameters.
const (
	// livenessChecksPerBudget is how many times per StalenessBudget staleness
	// is evaluated (never more often than livenessMinCheck): entry comes at
	// most a quarter of a budget late, and a flow in fallback re-announces
	// itself to a restarted agent at the same cadence.
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
	// probeAlpha is the EWMA gain of the probe latency filter: heavy enough
	// that a handful of healthy echoes after a heal crosses the exit
	// threshold within a few probe intervals, light enough that one jittered
	// echo cannot.
	probeAlpha = 0.3
)

// AgentGone tells the datapath the transport has lost (gone=true) or
// re-established (gone=false) the agent connection. With the liveness layer
// disabled this is a no-op. A gone signal enters fallback immediately; a
// back signal alone does not exit fallback — only a fresh applied decision
// proves the control loop is closed again.
func (d *CCP) AgentGone(gone bool) {
	if !d.cfg.Liveness.on() || gone == d.fs.agentGone {
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

// touchCtrl records an applied control decision of kind t for the
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
	d.touchAgent()
}

func (d *CCP) touchAgent() {
	fs := d.fs
	fs.lastAgentMsg = d.cfg.Clock.Now()
	if d.fallbackActive && !fs.agentGone && d.exitGateOK() {
		// Resume the installed program from the top, with a handoff ramp.
		// While the transport still reports the agent gone, a straggling
		// queued decision does not exit fallback; with probing enabled,
		// neither does a decision arriving while the probe score is still
		// unhealthy (hysteresis).
		d.exitFallback()
	}
}

// armFailsafe starts the staleness watchdog and, when configured, the
// heartbeat probe loop from Init; silence is measured from now.
func (d *CCP) armFailsafe() {
	if !d.cfg.Liveness.on() {
		return
	}
	fs, now := d.fs, d.cfg.Clock.Now()
	fs.lastAgentMsg, fs.lastInstallAt, fs.lastCwndAt, fs.lastRateAt = now, now, now, now
	d.scheduleLiveness()
	if d.cfg.Liveness.probesOn() {
		d.scheduleProbe()
	}
}

// stopFailsafe cancels the layer's timers when the flow closes.
func (d *CCP) stopFailsafe() {
	if fs := d.fs; fs != nil {
		stopTimer(&fs.liveTimer)
		stopTimer(&fs.probeTimer)
	}
}

// scheduleProbe runs the heartbeat loop: each tick folds the age of the
// oldest still-unanswered probe into the health score (so a dead or paused
// agent drives the EWMA up even though no echoes arrive), sends a fresh
// probe, and applies the hysteresis entry edge. Probes keep flowing while
// in fallback — a healthy echo stream is the exit signal (see
// handleHeartbeat; after a heal, the datapath's periodic Resyncs are
// dup-dropped by an agent that never lost the flow, so no fresh decision
// may ever arrive to exit on).
func (d *CCP) scheduleProbe() {
	fs := d.fs
	fs.probeTimer = d.cfg.Clock.AfterFunc(d.cfg.Liveness.ProbeInterval, func() {
		now := d.cfg.Clock.Now()
		if fs.haveUnechoed {
			d.foldProbeSample(now - fs.unechoedAt)
		}
		fs.probeSeq++
		if fs.probeSeq == 0 {
			fs.probeSeq = 1
		}
		if !fs.haveUnechoed {
			fs.haveUnechoed = true
			fs.unechoedSeq = fs.probeSeq
			fs.unechoedAt = now
		}
		fs.n.ProbesSent++
		fs.scratchHB = proto.Heartbeat{SID: d.cfg.SID, Seq: fs.probeSeq, SentAt: now.Seconds()}
		d.send(&fs.scratchHB)
		// Entry edge for the blind-spot case: control decisions still arrive
		// at the normal cadence (lastAgentMsg stays fresh) but every round
		// trip is slower than the budget — the flow is effectively
		// uncontrolled and belongs in fallback.
		if !d.fallbackActive && !fs.agentGone && fs.probeSamples > 0 &&
			fs.probeEWMA > d.cfg.Liveness.StalenessBudget.Seconds() {
			d.enterFallback(true)
		}
		d.scheduleProbe()
	})
}

// foldProbeSample feeds one latency observation (an echo round trip, or the
// age of an unanswered probe) into the EWMA health score. Samples are
// clamped at twice the budget so a long outage saturates the score instead
// of poisoning the post-heal decay.
func (d *CCP) foldProbeSample(lat time.Duration) {
	fs := d.fs
	s := lat.Seconds()
	if s < 0 {
		s = 0
	}
	if cap := 2 * d.cfg.Liveness.StalenessBudget.Seconds(); s > cap {
		s = cap
	}
	if fs.probeSamples == 0 {
		fs.probeEWMA = s
	} else {
		fs.probeEWMA = (1-probeAlpha)*fs.probeEWMA + probeAlpha*s
	}
	fs.probeSamples++
}

// probeHealthy reports whether the EWMA latency is inside the exit band.
func (d *CCP) probeHealthy() bool {
	return d.fs.probeSamples > 0 && d.fs.probeEWMA < exitLatencyFraction*d.cfg.Liveness.StalenessBudget.Seconds()
}

// exitGateOK is the hysteresis exit gate consulted by touchAgent: with
// probing off every applied fresh decision exits fallback (the PR 6 rule);
// with probing on the probe score must also be healthy, so a slow agent's
// late-but-sequenced decisions cannot flap the flow out of fallback.
func (d *CCP) exitGateOK() bool {
	if !d.cfg.Liveness.probesOn() {
		return true
	}
	return d.probeHealthy()
}

// handleHeartbeat processes an echoed probe: measure the round trip, clear
// the unanswered-probe tracker, and exit fallback if the score has
// recovered. Echoes are advisory — they never reset the control staleness
// clocks.
func (d *CCP) handleHeartbeat(v *proto.Heartbeat) {
	if !d.cfg.Liveness.probesOn() {
		d.n.UnexpectedMsgs++
		return
	}
	fs := d.fs
	fs.n.ProbeEchoes++
	d.foldProbeSample(d.cfg.Clock.Now() - secsToDur(v.SentAt))
	if !fs.haveUnechoed || v.Seq == fs.unechoedSeq || proto.SeqNewer(v.Seq, fs.unechoedSeq) {
		fs.haveUnechoed = false
	}
	if d.fallbackActive && !fs.agentGone && d.probeHealthy() {
		fs.n.ProbeExits++
		// touchAgent applies the exit (resetting the staleness clock too, so
		// the budget does not immediately re-trip on the pre-outage
		// lastAgentMsg).
		d.touchAgent()
	}
}

// scheduleLiveness runs the staleness watchdog: the one timer-driven way
// into fallback.
func (d *CCP) scheduleLiveness() {
	fs := d.fs
	every := max(d.cfg.Liveness.StalenessBudget/livenessChecksPerBudget, livenessMinCheck)
	fs.liveTimer = d.cfg.Clock.AfterFunc(every, func() {
		now := d.cfg.Clock.Now()
		if !d.fallbackActive && (fs.agentGone || now-fs.lastAgentMsg > d.cfg.Liveness.StalenessBudget) {
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
func (d *CCP) engageFallback() tcp.CongestionControl {
	fs := d.fs
	d.fallbackActive = true
	fs.n.FallbackOn++
	stopTimer(&d.waitTimer)
	if fs.fallback == nil {
		fs.fallback = nativecc.NewNewReno()
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
	if d.conn != nil {
		// The dead agent's last pacing cap must not throttle the fallback.
		d.conn.SetPacingRate(0)
		fallback.Init(d.conn)
		// Conservative entry: replay the fallback's own multiplicative
		// decrease, halving cwnd (floor two segments) and starting it in
		// congestion avoidance rather than slow-starting from the stale
		// window.
		fallback.OnCongestion(d.conn, tcp.EventECN, 0)
	}
}

// exitFallback returns authority to the agent after a fresh applied
// decision. The installed program restarts from the top, and the transition
// is smoothed by a handoff ramp.
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

// Resync re-announces the flow to the agent. The Create carries the flow's
// *current* window (not the original one) so a restarted agent starts from
// live state, and the newest applied control sequence so the agent resumes
// numbering above it instead of looking stale.
func (d *CCP) Resync() {
	if d.conn == nil {
		return
	}
	d.failsafe().n.Resyncs++
	d.send(&proto.Create{
		SID:      d.cfg.SID,
		MSS:      uint32(d.conn.MSS()),
		InitCwnd: uint32(d.conn.Cwnd()),
		Seq:      d.lastCtrlSeq,
		Alg:      d.cfg.Alg,
	})
}
