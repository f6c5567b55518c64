// Package datapath implements the CCP modification to the datapath (§2):
// the runtime that a CCP-conformant datapath embeds. It plugs into the
// transport as a tcp.CongestionControl, but instead of making congestion
// control decisions locally it:
//
//   - executes the control program installed by the user-space agent
//     (Rate/Cwnd/Wait/WaitRtts/Report phase machine),
//   - summarizes per-ACK measurements with a fold function, a per-packet
//     vector, or the §3 prototype's EWMA filters,
//   - reports batched measurements at the program's Report points and
//     urgent events (loss, timeouts, optionally ECN) immediately, and
//   - enforces the window/rate decisions that arrive asynchronously.
//
// It also implements the §5 safety fallback: if the agent goes silent, the
// datapath reverts to a built-in NewReno until the agent returns.
package datapath

import (
	"time"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
	"github.com/ccp-repro/ccp/internal/metrics"
	"github.com/ccp-repro/ccp/internal/nativecc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/stats"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// Config configures one flow's CCP datapath runtime.
type Config struct {
	// SID identifies the flow on the wire protocol.
	SID uint32
	// Alg optionally names the algorithm the agent should run for this flow.
	Alg string
	// Clock provides time and timers: the simulator in experiments, and over
	// real transports whatever steps the flow (benchmark/'s driver makes each
	// flow its own clock).
	Clock netsim.Clock
	// ToAgent transmits a message to the agent. In simulation it schedules
	// a delayed delivery; over a real transport it marshals and sends.
	//
	// Ownership: the message (including a Batch's Msgs and any Fields/Data
	// slices) is only valid for the duration of the call — the runtime emits
	// reports from reusable scratch. ToAgent must marshal or deep-copy
	// (proto.Clone) anything it keeps past returning. Both the simulator
	// bridge and SocketLink marshal synchronously, so they satisfy this for
	// free.
	ToAgent func(proto.Msg) error
	// FallbackAfter reverts to in-datapath NewReno when no agent message
	// has arrived for this long (0 disables the watchdog). When
	// Liveness.StalenessBudget is set the liveness layer supersedes this
	// watchdog and FallbackAfter is ignored.
	FallbackAfter time.Duration
	// Liveness configures the fail-safe layer (see failsafe.go): per-kind
	// control staleness clocks, explicit agent-gone handling, conservative
	// fallback entry, and smoothed re-handoff. Zero value disables it.
	Liveness LivenessConfig
	// MaxVectorRows caps vector-mode batching memory (default 8192 rows);
	// beyond it, samples are dropped and counted.
	MaxVectorRows int
	// DefaultProgram runs before the agent installs anything. Nil means the
	// §3 prototype behaviour: EWMA measurement reported once per RTT.
	DefaultProgram *lang.Program
	// SmoothCwnd spreads window *increases* over a round trip instead of
	// applying them as a step — the paper's §3 future work ("smooth
	// congestion window transitions in the datapath to avoid packet bursts
	// due to per-RTT congestion window updates"). Decreases still apply
	// immediately.
	SmoothCwnd bool
	// BatchInterval coalesces report messages (Measurement, Vector) into
	// proto.Batch frames flushed at most every interval; 0 sends every
	// report as its own IPC message (the pre-batching behaviour,
	// bit-identical). Urgent events, Create, and Close bypass coalescing
	// but flush pending reports first, preserving per-flow ordering. This
	// is the paper's §4 trade-off knob: a longer interval amortizes
	// per-message IPC cost over more reports at the price of added control
	// staleness.
	BatchInterval time.Duration
	// MaxBatchMsgs flushes a partial batch early once it holds this many
	// reports (default 64, capped at proto.MaxBatchMsgs).
	MaxBatchMsgs int
	// Metrics optionally receives datapath counters (reports sent, batch
	// sizes, fallback activations). Nil is valid.
	Metrics *metrics.Registry
	// Verify selects the install-time program verification policy
	// (internal/lang/absint): strict refuses programs with install-blocking
	// findings (the previous program stays in force and the agent is told
	// via proto.InstallErr), warn counts them but installs anyway, off skips
	// analysis. ModeDefault resolves to the package default (strict unless
	// changed with SetDefaultVerify).
	Verify absint.Mode
}

// defaultVerify is the verification mode used when Config.Verify is
// ModeDefault. The datapath is a trust boundary (§2: it executes programs
// handed to it by a less-trusted agent), so the default is strict.
var defaultVerify = absint.ModeStrict

// SetDefaultVerify sets the process-wide default verification mode used by
// flows whose Config leaves Verify at ModeDefault. It exists for command-line
// tools (-verify=strict|warn|off) that construct datapaths indirectly through
// the experiment harness; call it before creating flows.
func SetDefaultVerify(m absint.Mode) { defaultVerify = m }

// Stats counts the runtime's activity for experiments and tests.
type Stats struct {
	AcksProcessed  int
	ReportsSent    int
	VectorsSent    int
	VectorRowsSent int
	UrgentsSent    int
	SendErrors     int
	InstallsRecvd  int
	SetCwndRecvd   int
	SetRateRecvd   int
	FallbackOn     int
	FallbackOff    int
	VectorDropped  int
	// StaleCtrlDropped counts sequenced control messages (Install, SetCwnd,
	// SetRate) discarded because a newer decision had already been applied —
	// the reorder/duplicate protection of the control channel.
	StaleCtrlDropped int
	// Resyncs counts Create re-announcements sent while the fallback was
	// active, prompting a restarted agent to re-adopt the flow.
	Resyncs int
	// UnexpectedMsgs counts agent messages of a type the datapath does not
	// handle; they are ignored rather than trusted.
	UnexpectedMsgs int
	// InstallRejects counts Install messages refused — malformed wire
	// programs and verifier rejections alike. Each one was answered with a
	// proto.InstallErr and left the previous program in force.
	InstallRejects int
	// VerifyWarnings counts advisory verifier findings on programs that
	// were installed anyway (warn-severity findings in any mode, plus
	// error-severity ones under Verify=warn).
	VerifyWarnings int
	// InstallArtifactHits counts installs whose measure half — the fold with
	// its Init values, or the vector's fields — was already verified and
	// compiled (by this flow's current program or by any flow in the process)
	// and was reused; InstallArtifactMisses counts those that had to build it.
	// Unlike every other counter here they depend on what the process
	// installed before this flow, not on the flow's own history, so
	// run-to-run comparisons go through Deterministic. The built-in default
	// program is prepared once per process and counts as neither.
	InstallArtifactHits   int
	InstallArtifactMisses int
	// BatchesSent counts multi-report frames shipped; BatchedReports counts
	// the reports they carried (a batch of one is sent plain and counts
	// under neither).
	BatchesSent    int
	BatchedReports int
	// LivenessStale counts fallback entries triggered by the staleness
	// budget (vs. AgentGoneSignals, explicit transport notifications that
	// the agent connection is lost). HandoffRamps counts smoothed
	// fallback-exit transitions; BackoffsRecvd counts overload backoff
	// messages accepted from the agent runtime.
	LivenessStale    int
	AgentGoneSignals int
	HandoffRamps     int
	BackoffsRecvd    int
	// Heartbeat probing (LivenessConfig.ProbeInterval): probes sent, echoes
	// received, and fallback exits granted by a recovered probe score.
	ProbesSent  int
	ProbeEchoes int
	ProbeExits  int
}

// CCP is the datapath runtime for one flow. It implements
// tcp.CongestionControl and is driven by the datapath's ACK processing on
// one side and by Deliver (messages from the agent) on the other.
type CCP struct {
	cfg  Config
	conn *tcp.Conn

	// art is the shared, immutable artifact of the program in force's measure
	// half (install.go) and fold its compiled fold (nil outside fold mode);
	// vars is all the VM state a flow has of its own.
	art  *artifact
	prog *lang.Program
	fold *lang.CompiledFold
	ctrl []lang.RegCode // compiled expression per instruction (zero for Report)
	vars []float64

	vec       []float64
	vecFields []lang.Field

	pc         int
	waitedPass bool
	waitTimer  netsim.Timer
	onWait     func() // the wait timer's callback, made at the flow's first wait
	reportSeq  uint32

	// lastCtrlSeq is the newest control sequence number applied; stale or
	// duplicate control messages are dropped (seq 0 is unsequenced and always
	// accepted). urgentSeq numbers outgoing urgents so the agent can dedup
	// duplicated deliveries.
	lastCtrlSeq uint32
	urgentSeq   uint32

	// EWMA-mode state (§3 prototype).
	ewmaRtt  *stats.EWMA
	ewmaSnd  *stats.EWMA
	ewmaRcv  *stats.EWMA
	ackedAcc float64
	lostAcc  float64
	pktsAcc  int
	ecnAcc   int
	lastRtt  float64

	// Safety fallback (§5) and the liveness layer over it (failsafe.go).
	fallback       tcp.CongestionControl
	fallbackActive bool
	lastAgentMsg   time.Duration
	watchdog       netsim.Timer
	// Per-kind control staleness clocks (virtual time of last applied
	// Install / SetCwnd / SetRate; see failsafe.go).
	lastInstallAt time.Duration
	lastCwndAt    time.Duration
	lastRateAt    time.Duration
	agentGone     bool
	liveTimer     netsim.Timer
	// handoffUntil, when nonzero, smooths window increases until the
	// post-fallback handoff ramp expires. backoffFactor stretches program
	// waits under agent overload (1 or less: none).
	handoffUntil  time.Duration
	backoffFactor float64
	// Heartbeat probe health scoring (failsafe.go): EWMA of probe round-trip
	// latency in seconds, plus the oldest still-unanswered probe so silence
	// degrades the score between echoes.
	probeTimer   netsim.Timer
	probeSeq     uint32
	probeEWMA    float64
	probeSamples int
	unechoedSeq  uint32
	unechoedAt   time.Duration
	haveUnechoed bool
	scratchHB    proto.Heartbeat

	// Smooth window transitions (§3 future work).
	cwndTarget  int
	cwndStep    int
	smoothTimer netsim.Timer

	// Report coalescing (§4 batching).
	pending    []proto.Msg
	batchTimer netsim.Timer

	// Report scratch: messages handed to ToAgent are built here and reused
	// once the agent side has consumed them (ToAgent's ownership contract),
	// so steady-state reporting allocates nothing. Slab counters reset after
	// every send/flush; pending holds pointers into the slabs meanwhile.
	repMeas       []proto.Measurement
	repVecs       []proto.Vector
	nRepMeas      int
	nRepVecs      int
	scratchUrgent proto.Urgent
	scratchBatch  proto.Batch
	scratchIErr   proto.InstallErr

	// Cached metrics instruments (nil, which absorbs writes, when cfg.Metrics
	// is nil).
	mReportsSent   *metrics.Counter
	mUrgentsSent   *metrics.Counter
	mBatchSize     *metrics.Histogram
	mFallbackOn    *metrics.Counter
	mFallbackOff   *metrics.Counter
	mAgentGone     *metrics.Counter
	mLivenessStale *metrics.Counter
	mBackoffRecvd  *metrics.Counter
	mInstallReject *metrics.Counter
	mArtifactHit   *metrics.Counter
	mArtifactMiss  *metrics.Counter

	stats Stats
}

// New creates a CCP runtime. Attach it to a tcp.Conn as its congestion
// control; it announces itself to the agent on Init.
func New(cfg Config) *CCP {
	if cfg.MaxVectorRows <= 0 {
		cfg.MaxVectorRows = 8192
	}
	if cfg.Clock == nil {
		panic("datapath: Config.Clock is required")
	}
	if cfg.ToAgent == nil {
		panic("datapath: Config.ToAgent is required")
	}
	if cfg.MaxBatchMsgs <= 0 {
		cfg.MaxBatchMsgs = 64
	}
	if cfg.MaxBatchMsgs > proto.MaxBatchMsgs {
		cfg.MaxBatchMsgs = proto.MaxBatchMsgs
	}
	if cfg.Verify == absint.ModeDefault {
		cfg.Verify = defaultVerify
	}
	return &CCP{
		cfg:            cfg,
		fallback:       nativecc.NewNewReno(),
		ewmaRtt:        stats.NewEWMA(0.125),
		ewmaSnd:        stats.NewEWMA(0.25),
		ewmaRcv:        stats.NewEWMA(0.25),
		mReportsSent:   cfg.Metrics.Counter("dp_reports_sent_total"),
		mUrgentsSent:   cfg.Metrics.Counter("dp_urgents_sent_total"),
		mBatchSize:     cfg.Metrics.Histogram("dp_batch_size"),
		mFallbackOn:    cfg.Metrics.Counter("dp_fallback_on_total"),
		mFallbackOff:   cfg.Metrics.Counter("dp_fallback_off_total"),
		mAgentGone:     cfg.Metrics.Counter("dp_agent_gone_total"),
		mLivenessStale: cfg.Metrics.Counter("dp_liveness_stale_total"),
		mBackoffRecvd:  cfg.Metrics.Counter("dp_backoff_recvd_total"),
		mInstallReject: cfg.Metrics.Counter("dp_install_rejects_total"),
		mArtifactHit:   cfg.Metrics.Counter("dp_install_artifact_hits_total"),
		mArtifactMiss:  cfg.Metrics.Counter("dp_install_artifact_misses_total"),
	}
}

// Stats returns a snapshot of the runtime counters.
func (d *CCP) Stats() Stats { return d.stats }

// Deterministic returns s without the counters that depend on process
// history (InstallArtifactHits/Misses): what remains is a function of the
// flow's own inputs, comparable between two runs in one process.
func (s Stats) Deterministic() Stats {
	s.InstallArtifactHits, s.InstallArtifactMisses = 0, 0
	return s
}

// SID returns the flow's wire-protocol identifier.
func (d *CCP) SID() uint32 { return d.cfg.SID }

// FallbackActive reports whether the safety fallback is controlling the flow.
func (d *CCP) FallbackActive() bool { return d.fallbackActive }

// Program returns the currently installed program (the default one before
// any Install). It is read-only: its Measure (the fold spec and everything
// under it) is shared with every flow in the process running the same
// measure half, and the built-in default program is shared whole.
func (d *CCP) Program() *lang.Program { return d.prog }

// Name implements tcp.CongestionControl.
func (d *CCP) Name() string {
	if d.cfg.Alg != "" {
		return "ccp/" + d.cfg.Alg
	}
	return "ccp"
}

// Init implements tcp.CongestionControl: announce the flow and start the
// default program.
func (d *CCP) Init(c *tcp.Conn) {
	d.conn = c
	d.lastAgentMsg = d.cfg.Clock.Now()
	d.send(&proto.Create{
		SID:      d.cfg.SID,
		MSS:      uint32(c.MSS()),
		InitCwnd: uint32(c.Cwnd()),
		Alg:      d.cfg.Alg,
	})
	if p := d.cfg.DefaultProgram; p == nil {
		d.activate(defaultInstall(d.cfg.Verify))
	} else {
		// A custom default takes the path an Install of the same bytes would.
		data, err := lang.MarshalProgram(p)
		if err == nil {
			err = d.install(data)
		}
		if err != nil {
			// The default program is statically valid; a failure here is a bug.
			panic("datapath: default program rejected: " + err.Error())
		}
	}
	if d.cfg.Liveness.on() {
		d.armLiveness()
	} else {
		d.armWatchdog()
	}
}

// Close implements tcp.CongestionControl.
func (d *CCP) Close(c *tcp.Conn) {
	d.flushBatch()
	d.send(&proto.Close{SID: d.cfg.SID})
	if d.waitTimer != nil {
		d.waitTimer.Stop()
		d.waitTimer = nil
	}
	if d.watchdog != nil {
		d.watchdog.Stop()
		d.watchdog = nil
	}
	if d.liveTimer != nil {
		d.liveTimer.Stop()
		d.liveTimer = nil
	}
	if d.probeTimer != nil {
		d.probeTimer.Stop()
		d.probeTimer = nil
	}
	if d.smoothTimer != nil {
		d.smoothTimer.Stop()
		d.smoothTimer = nil
	}
}

// OnAck implements tcp.CongestionControl: fold the ACK into the current
// measurement state.
func (d *CCP) OnAck(c *tcp.Conn, s tcp.AckSample) {
	d.stats.AcksProcessed++
	d.updateVars(s)

	if d.fallbackActive {
		d.fallback.OnAck(c, s)
	}

	switch d.measureMode() {
	case lang.MeasureFold:
		d.fold.Step(d.vars)
	case lang.MeasureVector:
		if len(d.vec)/len(d.vecFields) < d.cfg.MaxVectorRows {
			for _, f := range d.vecFields {
				d.vec = append(d.vec, d.vars[lang.PktFieldSlot(f)])
			}
		} else {
			d.stats.VectorDropped++
		}
	default: // EWMA
		if s.RTT > 0 {
			d.ewmaRtt.Update(s.RTT.Seconds())
			d.lastRtt = s.RTT.Seconds()
		}
		if s.SndRate > 0 {
			d.ewmaSnd.Update(s.SndRate)
		}
		if s.DeliveryRate > 0 {
			d.ewmaRcv.Update(s.DeliveryRate)
		}
		d.ackedAcc += float64(s.AckedBytes)
		d.lostAcc += float64(s.LostBytes)
		d.pktsAcc++
		if s.ECNEcho {
			d.ecnAcc++
		}
	}
}

// OnCongestion implements tcp.CongestionControl: report urgent events.
func (d *CCP) OnCongestion(c *tcp.Conn, ev tcp.CongEvent, lostBytes int) {
	if d.fallbackActive {
		d.fallback.OnCongestion(c, ev, lostBytes)
	}
	switch ev {
	case tcp.EventDupAck:
		d.sendUrgent(proto.UrgentDupAck, float64(lostBytes))
	case tcp.EventTimeout:
		d.sendUrgent(proto.UrgentTimeout, float64(lostBytes))
	case tcp.EventECN:
		if d.prog != nil && d.prog.UrgentECN {
			d.sendUrgent(proto.UrgentECN, 1)
		}
		// Otherwise ECN is batched via the measurement state.
	}
}

// Deliver processes a message from the agent (the datapath side of
// Figure 1's downward arrow).
//
// Control messages carry a sequence number shared across Install, SetCwnd,
// and SetRate; a message at or below the newest applied sequence is a
// reordered or duplicated copy of a decision already superseded and is
// dropped, so the channel may reorder freely without an old window ever
// overwriting a newer one. Seq 0 marks an unsequenced message and is always
// accepted. Stale messages do not count as agent liveness: only decisions
// the datapath actually applies reset the §5 watchdog.
func (d *CCP) Deliver(m proto.Msg) {
	switch v := m.(type) {
	case *proto.Install:
		if d.staleCtrl(v.Seq) {
			return
		}
		d.touchCtrl(proto.TypeInstall)
		if err := d.install(v.Prog); err != nil {
			// A malformed or refused program must not crash the datapath
			// (§5); the previous program stays in force.
			d.rejectInstall(v.Seq, err)
			return
		}
		d.stats.InstallsRecvd++
	case *proto.SetCwnd:
		if d.staleCtrl(v.Seq) {
			return
		}
		d.touchCtrl(proto.TypeSetCwnd)
		d.stats.SetCwndRecvd++
		d.applyCwnd(int(v.Bytes))
	case *proto.SetRate:
		if d.staleCtrl(v.Seq) {
			return
		}
		d.touchCtrl(proto.TypeSetRate)
		d.stats.SetRateRecvd++
		if d.conn != nil {
			d.conn.SetPacingRate(v.Bps)
		}
	case *proto.Backoff:
		// Overload degradation signal, not a control decision: it never
		// resets the liveness clocks.
		d.handleBackoff(v)
	case *proto.Heartbeat:
		// Echoed supervision probe (failsafe.go): feeds the EWMA health
		// score, never the control staleness clocks.
		d.handleHeartbeat(v)
	default:
		// Anything else on the control channel is noise (corruption that
		// happened to decode, or a confused agent); ignore it and do not
		// treat it as liveness.
		d.stats.UnexpectedMsgs++
	}
}

// staleCtrl checks a control message's sequence number against the newest
// applied one, recording and dropping stale or duplicate copies. It advances
// lastCtrlSeq when the message is fresh.
func (d *CCP) staleCtrl(seq uint32) bool {
	if seq == 0 {
		return false // unsequenced: always accepted
	}
	if !proto.SeqNewer(seq, d.lastCtrlSeq) {
		d.stats.StaleCtrlDropped++
		return true
	}
	d.lastCtrlSeq = seq
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
	d.stats.Resyncs++
	d.flushBatch()
	d.send(&proto.Create{
		SID:      d.cfg.SID,
		MSS:      uint32(d.conn.MSS()),
		InitCwnd: uint32(d.conn.Cwnd()),
		Seq:      d.lastCtrlSeq,
		Alg:      d.cfg.Alg,
	})
}

// rejectInstall records a refused Install and tells the agent why with an
// InstallErr reply carrying the offending Seq. The refusal degrades, never
// breaks: the previously installed program (or the default one) keeps
// controlling the flow, and the §5 fallback machinery is untouched.
func (d *CCP) rejectInstall(seq uint32, err error) {
	d.stats.InstallRejects++
	d.mInstallReject.Inc()
	reason := err.Error()
	if len(reason) > 255 {
		reason = reason[:252] + "..."
	}
	d.scratchIErr = proto.InstallErr{SID: d.cfg.SID, Seq: seq, Reason: reason}
	d.send(&d.scratchIErr)
}

func (d *CCP) measureMode() lang.MeasureMode {
	if d.prog == nil {
		return lang.MeasureEWMA
	}
	return d.prog.Measure.Mode
}

// updateVars refreshes the packet-field and flow-variable slots from an ACK.
func (d *CCP) updateVars(s tcp.AckSample) {
	if len(d.vars) == 0 {
		return
	}
	rtt := s.RTT.Seconds()
	if rtt == 0 && d.conn != nil {
		rtt = d.conn.SRTT().Seconds() // retransmission echo: use the filter
	}
	d.vars[lang.PktFieldSlot(lang.FieldRTT)] = rtt
	d.vars[lang.PktFieldSlot(lang.FieldAcked)] = float64(s.AckedBytes)
	d.vars[lang.PktFieldSlot(lang.FieldSacked)] = float64(s.SackedBytes)
	d.vars[lang.PktFieldSlot(lang.FieldLost)] = float64(s.LostBytes)
	d.vars[lang.PktFieldSlot(lang.FieldECN)] = b2f(s.ECNEcho)
	d.vars[lang.PktFieldSlot(lang.FieldSndRate)] = s.SndRate
	d.vars[lang.PktFieldSlot(lang.FieldRcvRate)] = s.DeliveryRate
	d.vars[lang.PktFieldSlot(lang.FieldInflight)] = float64(s.InFlight)
	d.vars[lang.PktFieldSlot(lang.FieldHdrRate)] = s.HdrRate
	d.vars[lang.PktFieldSlot(lang.FieldNow)] = s.Now.Seconds()
	d.refreshFlowVars()
}

func (d *CCP) refreshFlowVars() {
	if d.conn == nil || len(d.vars) == 0 {
		return
	}
	d.vars[lang.FlowVarSlot(lang.FlowCwnd)] = float64(d.conn.Cwnd())
	d.vars[lang.FlowVarSlot(lang.FlowRate)] = d.conn.PacingRate()
	d.vars[lang.FlowVarSlot(lang.FlowMSS)] = float64(d.conn.MSS())
	d.vars[lang.FlowVarSlot(lang.FlowSRTT)] = d.conn.SRTT().Seconds()
	d.vars[lang.FlowVarSlot(lang.FlowMinRTT)] = d.conn.MinRTT().Seconds()
}

// resume executes the control program until it blocks on a wait.
func (d *CCP) resume() {
	if d.prog == nil || len(d.prog.Instrs) == 0 {
		return
	}
	for steps := 0; steps < 10000; steps++ {
		if d.pc >= len(d.prog.Instrs) {
			d.pc = 0
			if !d.waitedPass {
				// A program without waits would spin; pace it at one RTT,
				// the control loop's natural time scale (§2.3).
				d.scheduleWait(d.rttDur(1))
				return
			}
			d.waitedPass = false
		}
		in := d.prog.Instrs[d.pc]
		code := &d.ctrl[d.pc]
		d.pc++
		switch in.(type) {
		case lang.SetRate:
			d.refreshFlowVars()
			rate := code.Eval(d.vars)
			if !d.fallbackActive && d.conn != nil {
				d.conn.SetPacingRate(clampRate(rate))
				d.refreshFlowVars()
			}
		case lang.SetCwnd:
			d.refreshFlowVars()
			cwnd := code.Eval(d.vars)
			if !d.fallbackActive {
				d.applyCwnd(clampCwnd(cwnd))
				d.refreshFlowVars()
			}
		case lang.Wait:
			secs := code.Eval(d.vars)
			d.waitedPass = true
			d.scheduleWait(secsToDur(secs))
			return
		case lang.WaitRtts:
			rtts := code.Eval(d.vars)
			d.waitedPass = true
			d.scheduleWait(d.rttDur(rtts))
			return
		case lang.Report:
			d.report()
		}
	}
}

func (d *CCP) scheduleWait(dur time.Duration) {
	dur = d.stretchWait(dur)
	if dur <= 0 {
		dur = time.Microsecond
	}
	if d.waitTimer != nil {
		d.waitTimer.Stop()
	}
	if d.onWait == nil {
		d.onWait = func() {
			d.waitTimer = nil
			d.resume()
		}
	}
	d.waitTimer = d.cfg.Clock.AfterFunc(dur, d.onWait)
}

// rttDur converts a WaitRtts coefficient to a duration using the smoothed
// RTT, with a conservative default before the first sample.
func (d *CCP) rttDur(rtts float64) time.Duration {
	srtt := time.Duration(0)
	if d.conn != nil {
		srtt = d.conn.SRTT()
	}
	if srtt == 0 {
		srtt = 100 * time.Millisecond
	}
	return time.Duration(float64(srtt) * rtts)
}

// report ships the batched measurement state to the agent and resets it.
// Report messages are built in the scratch slabs (see the field comments):
// ToAgent consumes its message synchronously, so once a report leaves via
// send/flushBatch its slab entry — Fields backing included — is reusable.
func (d *CCP) report() {
	d.reportSeq++
	if d.reportSeq == 0 {
		d.reportSeq = 1 // skip 0 on wrap: 0 means "unsequenced" on the wire
	}
	switch d.measureMode() {
	case lang.MeasureFold:
		v := d.nextRepMeas()
		v.SID, v.Seq = d.cfg.SID, d.reportSeq
		v.Fields = d.fold.ReadRegs(d.vars, v.Fields[:0])
		d.sendReport(v)
		d.stats.ReportsSent++
		d.mReportsSent.Inc()
		d.fold.InitRegs(d.vars)
	case lang.MeasureVector:
		if len(d.vecFields) == 0 {
			return
		}
		v := d.nextRepVec()
		v.SID, v.Seq = d.cfg.SID, d.reportSeq
		v.NumFields = uint8(len(d.vecFields))
		v.Data = append(v.Data[:0], d.vec...)
		d.vec = d.vec[:0]
		d.sendReport(v)
		d.stats.VectorsSent++
		d.mReportsSent.Inc()
		d.stats.VectorRowsSent += len(v.Data) / len(d.vecFields)
	default: // EWMA (§3 prototype report)
		ecnFrac := 0.0
		if d.pktsAcc > 0 {
			ecnFrac = float64(d.ecnAcc) / float64(d.pktsAcc)
		}
		v := d.nextRepMeas()
		v.SID, v.Seq = d.cfg.SID, d.reportSeq
		v.Fields = append(v.Fields[:0],
			d.ewmaRtt.Value(),
			d.ewmaSnd.Value(),
			d.ewmaRcv.Value(),
			d.ackedAcc,
			d.lostAcc,
			ecnFrac,
			d.lastRtt,
		)
		d.sendReport(v)
		d.stats.ReportsSent++
		d.mReportsSent.Inc()
		d.ackedAcc, d.lostAcc = 0, 0
		d.pktsAcc, d.ecnAcc = 0, 0
	}
}

// nextRepMeas hands out a scratch Measurement. Slab growth relocates the
// backing array, but entries already pending keep the old array alive through
// their pointers, so handed-out messages are never disturbed.
func (d *CCP) nextRepMeas() *proto.Measurement {
	if d.nRepMeas == len(d.repMeas) {
		d.repMeas = append(d.repMeas, proto.Measurement{})
	}
	v := &d.repMeas[d.nRepMeas]
	d.nRepMeas++
	return v
}

// nextRepVec hands out a scratch Vector (same discipline as nextRepMeas).
func (d *CCP) nextRepVec() *proto.Vector {
	if d.nRepVecs == len(d.repVecs) {
		d.repVecs = append(d.repVecs, proto.Vector{})
	}
	v := &d.repVecs[d.nRepVecs]
	d.nRepVecs++
	return v
}

// resetReportScratch reclaims the slabs after the agent side has consumed
// every outstanding report (i.e. right after a send or flush).
func (d *CCP) resetReportScratch() {
	d.nRepMeas, d.nRepVecs = 0, 0
}

func (d *CCP) sendUrgent(kind proto.UrgentKind, value float64) {
	d.stats.UrgentsSent++
	d.mUrgentsSent.Inc()
	d.urgentSeq++
	if d.urgentSeq == 0 {
		d.urgentSeq = 1 // skip 0 on wrap, as for reportSeq
	}
	// Urgent events must not queue behind a batch window (§2.1), but flushing
	// first keeps the per-flow order the agent observes identical to the
	// unbatched schedule's.
	d.flushBatch()
	d.scratchUrgent = proto.Urgent{SID: d.cfg.SID, Seq: d.urgentSeq, Kind: kind, Value: value}
	d.send(&d.scratchUrgent)
}

func (d *CCP) send(m proto.Msg) {
	if err := d.cfg.ToAgent(m); err != nil {
		d.stats.SendErrors++
	}
}

// sendReport ships a report message, coalescing it into a pending batch when
// BatchInterval is set. The batch flushes when the interval elapses or the
// batch fills, whichever comes first; a batch that drained to a single
// message is sent plain, so shipping one report costs exactly the unbatched
// encoding.
func (d *CCP) sendReport(m proto.Msg) {
	if d.cfg.BatchInterval <= 0 {
		d.send(m)
		d.resetReportScratch()
		return
	}
	d.pending = append(d.pending, m)
	if len(d.pending) >= d.cfg.MaxBatchMsgs {
		d.flushBatch()
		return
	}
	if d.batchTimer == nil {
		d.batchTimer = d.cfg.Clock.AfterFunc(d.cfg.BatchInterval, func() {
			d.batchTimer = nil
			d.flushBatch()
		})
	}
}

// flushBatch ships any coalesced reports immediately. Safe to call with an
// empty pending buffer. The batch frame itself is scratch: ToAgent consumes
// it synchronously, so pending and the report slabs are reclaimed on return.
func (d *CCP) flushBatch() {
	if d.batchTimer != nil {
		d.batchTimer.Stop()
		d.batchTimer = nil
	}
	if len(d.pending) == 0 {
		return
	}
	if len(d.pending) == 1 {
		m := d.pending[0]
		d.pending = d.pending[:0]
		d.send(m)
		d.resetReportScratch()
		return
	}
	d.stats.BatchesSent++
	d.stats.BatchedReports += len(d.pending)
	d.mBatchSize.Observe(float64(len(d.pending)))
	d.scratchBatch.Msgs = d.pending
	d.send(&d.scratchBatch)
	d.scratchBatch.Msgs = nil
	d.pending = d.pending[:0]
	d.resetReportScratch()
}

// applyCwnd routes a window update through the smoothing ramp when enabled:
// increases are applied in steps over roughly one RTT so a per-RTT window
// jump does not dump a burst into the network (§3 future work); decreases
// and the non-smoothed path apply directly.
func (d *CCP) applyCwnd(target int) {
	if d.conn == nil {
		return
	}
	if !d.smoothingActive() || target <= d.conn.Cwnd() {
		d.cwndTarget = 0
		d.conn.SetCwnd(target)
		return
	}
	d.cwndTarget = target
	d.cwndStep = (target - d.conn.Cwnd() + 3) / 4
	if d.cwndStep < d.conn.MSS() {
		d.cwndStep = d.conn.MSS()
	}
	if d.smoothTimer == nil {
		d.smoothStep()
	}
}

// smoothStep advances a quarter of the original increase every srtt/4, so
// the ramp completes in roughly one round trip.
func (d *CCP) smoothStep() {
	d.smoothTimer = nil
	if d.conn == nil || d.cwndTarget == 0 {
		return
	}
	cur := d.conn.Cwnd()
	if cur >= d.cwndTarget {
		d.cwndTarget = 0
		return
	}
	next := cur + d.cwndStep
	if next >= d.cwndTarget {
		next = d.cwndTarget
	}
	d.conn.SetCwnd(next)
	if next < d.cwndTarget {
		d.smoothTimer = d.cfg.Clock.AfterFunc(d.rttDur(0.25), d.smoothStep)
	} else {
		d.cwndTarget = 0
	}
}

// Safety fallback (§5).

func (d *CCP) touchAgent() {
	d.lastAgentMsg = d.cfg.Clock.Now()
	if d.fallbackActive && !d.agentGone && d.exitGateOK() {
		// Resume the installed program from the top (with a handoff ramp
		// under the liveness layer; see failsafe.go). While the transport
		// still reports the agent gone, a straggling queued decision does
		// not exit fallback; with probing enabled, neither does a decision
		// arriving while the probe score is still unhealthy (hysteresis).
		d.exitFallback()
	}
}

func (d *CCP) armWatchdog() {
	if d.cfg.FallbackAfter <= 0 {
		return
	}
	interval := d.cfg.FallbackAfter / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	d.watchdog = d.cfg.Clock.AfterFunc(interval, func() {
		now := d.cfg.Clock.Now()
		if !d.fallbackActive && now-d.lastAgentMsg > d.cfg.FallbackAfter {
			d.fallbackActive = true
			d.stats.FallbackOn++
			d.mFallbackOn.Inc()
			if d.waitTimer != nil {
				d.waitTimer.Stop()
				d.waitTimer = nil
			}
			if d.conn != nil {
				d.fallback.Init(d.conn)
			}
		}
		if d.fallbackActive {
			// Re-announce the flow every tick while the agent is silent: if
			// the silence was a crash, the restarted agent has no flow state
			// and needs a Create to re-adopt the flow (crash/resync recovery).
			d.Resync()
		}
		d.armWatchdog()
	})
}

func clampRate(bps float64) float64 {
	if bps < 0 {
		return 0
	}
	if bps > 1e12 {
		return 1e12
	}
	return bps
}

func clampCwnd(bytes float64) int {
	if bytes < 0 {
		return 0 // tcp floors at one MSS
	}
	if bytes > 1<<30 {
		return 1 << 30
	}
	return int(bytes)
}

func secsToDur(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	if s > 3600 {
		s = 3600
	}
	return time.Duration(s * float64(time.Second))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
