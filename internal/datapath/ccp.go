// Package datapath implements the CCP modification to the datapath (§2):
// the runtime that a CCP-conformant datapath embeds. It plugs into the
// transport as a cc.CongestionControl and reaches it only through cc.Host
// and a cc.Clock, so it links no transport and no simulator. Instead of
// making congestion control decisions locally it:
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
// datapath reverts to the NewReno every host carries (cc.NewNewReno) until
// the agent returns.
package datapath

import (
	"fmt"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/stats"
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
	Clock cc.Clock
	// ToAgent transmits a message to the agent. In simulation it schedules
	// a delayed delivery; over a real transport it marshals and sends.
	//
	// Ownership: the message (including any Fields/Data slices) is only
	// valid for the duration of the call — the runtime builds what it sends
	// in scratch it reuses for the next one: CCP.rep (every report) and the
	// scratch fields beside it, the probe (failsafe.go). ToAgent must
	// marshal anything it keeps past returning (a copy is the codec round
	// trip), and be done with the message before anything it sets off calls
	// back into the flow.
	// Both the simulator bridge and SocketLink marshal synchronously, so they
	// satisfy this for free.
	ToAgent func(proto.Msg) error
	// Liveness configures the fail-safe layer (see failsafe.go), the §5
	// watchdog: in-datapath NewReno takes over when no control decision has
	// been applied for Liveness.StalenessBudget, with per-kind staleness
	// clocks, explicit agent-gone handling, conservative fallback entry, and
	// smoothed re-handoff. Zero value disables it.
	Liveness LivenessConfig
	// DefaultProgram runs before the agent installs anything. Nil means the
	// §3 prototype behaviour: EWMA measurement reported once per RTT. It must
	// be EWMA-mode (Init panics otherwise): its reports carry epoch 0, which
	// the agent names with the EWMA report fields.
	DefaultProgram *lang.Program
	// SmoothCwnd spreads window *increases* over a round trip instead of
	// applying them as a step — the paper's §3 future work ("smooth
	// congestion window transitions in the datapath to avoid packet bursts
	// due to per-RTT congestion window updates"). Decreases still apply
	// immediately.
	SmoothCwnd bool
}

// CCP is the datapath runtime for one flow. It implements
// cc.CongestionControl and is driven by the datapath's ACK processing on
// one side and by Deliver (messages from the agent) on the other.
//
// The struct is what every flow uses on every ACK, report and decision. What
// only some flows use is behind one pointer per feature, declared in the
// feature's file and nil until New finds it configured or the flow first
// needs it; TestCCPSize holds the line.
type CCP struct {
	cfg Config
	// host is the transport this flow steers, set by Init; until then it is
	// a nil interface, and everything that touches the host checks for that.
	host cc.Host

	// art is the shared, immutable artifact of the program in force's measure
	// half (install.go) and fold its compiled fold (nil outside fold mode);
	// vars is all the VM state a flow has of its own.
	art  *artifact
	prog *lang.Program
	fold *lang.CompiledFold
	ctrl []lang.RegCode // compiled expression per instruction (zero for Report)
	vars []float64

	pc        int
	waitTimer cc.Timer
	onWait    func() // the wait timer's callback, made at the flow's first wait

	waitedPass bool
	// fallbackActive: the §5 fallback (failsafe.go) is controlling the flow.
	// It implies fs != nil.
	fallbackActive bool

	// reportSeq numbers outgoing reports. lastCtrlSeq is the newest control
	// sequence number applied; stale or duplicate control messages are dropped
	// (as is seq 0, which no agent stamps). urgentSeq numbers outgoing urgents
	// so the agent can dedup duplicated deliveries. epoch is the ctrl Seq of
	// the Install whose measure half is in force — what an Install by
	// reference must name (install.go) — and 0, which no reference can name,
	// for the default program or a Config.DefaultProgram; only a
	// whole-program Install that activates sets it.
	reportSeq   uint32
	lastCtrlSeq uint32
	urgentSeq   uint32
	epoch       uint32

	// EWMA-mode state (§3 prototype).
	ewmaRtt  stats.EWMA
	ewmaSnd  stats.EWMA
	ewmaRcv  stats.EWMA
	ackedAcc float64
	lostAcc  float64
	pktsAcc  int
	ecnAcc   int
	lastRtt  float64

	// Optional features.
	fs     *failsafe    // failsafe.go: watchdogs, probes, fallback
	smooth *smoother    // smooth.go: window ramp
	vec    *vectorState // report.go: vector mode

	// Message scratch (Config.ToAgent's ownership rule): rep is the report
	// of every mode, scratchUrgent the urgent (a refusal allocates its own).
	rep           proto.Measurement
	scratchUrgent proto.Urgent

	n coreCounts
}

// New creates a CCP runtime. Attach it to a host (a cc.Host, such as the
// simulator's *tcp.Conn) as its congestion control; it announces itself to
// the agent on Init.
func New(cfg Config) *CCP {
	if cfg.Clock == nil {
		panic("datapath: Config.Clock is required")
	}
	if cfg.ToAgent == nil {
		panic("datapath: Config.ToAgent is required")
	}
	d := &CCP{
		cfg:     cfg,
		ewmaRtt: stats.MakeEWMA(0.125),
		ewmaSnd: stats.MakeEWMA(0.25),
		ewmaRcv: stats.MakeEWMA(0.25),
	}
	if cfg.Liveness.on() {
		d.fs = &failsafe{}
	}
	if cfg.SmoothCwnd {
		d.smooth = &smoother{}
	}
	return d
}

// SID returns the flow's wire-protocol identifier.
func (d *CCP) SID() uint32 { return d.cfg.SID }

// FallbackActive reports whether the safety fallback is controlling the flow.
func (d *CCP) FallbackActive() bool { return d.fallbackActive }

// Program returns the currently installed program (the default one before
// any Install). It is read-only: its Measure (the fold spec and everything
// under it) is shared with every flow in the process running the same
// measure half, and the built-in default program is shared whole.
//
//lint:testsupport the datapath's view of the running program that datapath's install, derive, by-reference and backend tests, bridge's TestReferenceInterleavings and algorithms' tests compare against
func (d *CCP) Program() *lang.Program { return d.prog }

// Name implements cc.CongestionControl.
func (d *CCP) Name() string {
	if d.cfg.Alg != "" {
		return "ccp/" + d.cfg.Alg
	}
	return "ccp"
}

// Init implements cc.CongestionControl: announce the flow and start the
// default program.
func (d *CCP) Init(h cc.Host) {
	d.host = h
	d.announce(0)
	if p := d.cfg.DefaultProgram; p == nil {
		d.activate(defaultInstall())
	} else {
		// A custom default takes the path an Install of the same bytes would.
		data, err := lang.MarshalProgram(p)
		if err == nil && p.Measure.Mode != lang.MeasureEWMA {
			err = fmt.Errorf("%v-mode, not EWMA", p.Measure.Mode)
		}
		if err == nil {
			err = d.install(0, data)
		}
		if err != nil {
			// The default program is statically valid; a failure here is a bug.
			panic("datapath: default program rejected: " + err.Error())
		}
	}
	d.armFailsafe()
}

// Close implements cc.CongestionControl.
func (d *CCP) Close(h cc.Host) {
	d.send(&proto.Close{SID: d.cfg.SID})
	stopTimer(&d.waitTimer)
	d.stopFailsafe()
	d.stopSmoothing()
}

// OnAck implements cc.CongestionControl: fold the ACK into the current
// measurement state.
func (d *CCP) OnAck(h cc.Host, s cc.AckSample) {
	d.n.AcksProcessed++
	d.updateVars(s)

	if d.fallbackActive {
		d.fs.fallback.OnAck(h, s)
	}

	switch d.measureMode() {
	case lang.MeasureFold:
		d.fold.Step(d.vars)
	case lang.MeasureVector:
		d.vec.sample(d.vars)
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

// OnCongestion implements cc.CongestionControl: report urgent events.
func (d *CCP) OnCongestion(h cc.Host, ev cc.CongEvent, lostBytes int) {
	if d.fallbackActive {
		d.fs.fallback.OnCongestion(h, ev, lostBytes)
	}
	switch ev {
	case cc.EventDupAck:
		d.sendUrgent(proto.UrgentDupAck, float64(lostBytes))
	case cc.EventTimeout:
		d.sendUrgent(proto.UrgentTimeout, float64(lostBytes))
	case cc.EventECN:
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
// overwriting a newer one. Seq 0 is dropped the same way: no agent stamps it.
// Stale messages do not count as agent liveness: only decisions the datapath
// actually applies reset the §5 watchdog.
func (d *CCP) Deliver(m proto.Msg) {
	switch v := m.(type) {
	case *proto.Install:
		if d.staleCtrl(v.Seq) {
			return
		}
		d.touchCtrl(proto.TypeInstall)
		if err := d.install(v.Seq, v.Prog); err != nil {
			// A malformed or refused program must not crash the datapath
			// (§5); the previous program stays in force.
			d.rejectInstall(v.Seq, err)
			return
		}
		d.n.InstallsRecvd++
	case *proto.SetCwnd:
		if d.staleCtrl(v.Seq) {
			return
		}
		d.touchCtrl(proto.TypeSetCwnd)
		d.n.SetCwndRecvd++
		d.applyCwnd(int(v.Bytes))
	case *proto.SetRate:
		if d.staleCtrl(v.Seq) {
			return
		}
		d.touchCtrl(proto.TypeSetRate)
		d.n.SetRateRecvd++
		if d.host != nil {
			d.host.SetPacingRate(v.Bps)
		}
	case *proto.Heartbeat:
		// Echoed supervision probe (failsafe.go): feeds the EWMA health
		// score, never the control staleness clocks.
		d.handleHeartbeat(v)
	default:
		// Anything else on the control channel is noise (corruption that
		// happened to decode, or a confused agent); ignore it and do not
		// treat it as liveness.
		d.n.UnexpectedMsgs++
	}
}

// staleCtrl checks a control message's sequence number against the newest
// applied one, recording and dropping stale or duplicate copies. It advances
// lastCtrlSeq when the message is fresh.
func (d *CCP) staleCtrl(seq uint32) bool {
	if proto.AdmitSeq(seq, &d.lastCtrlSeq) {
		return false
	}
	d.n.StaleCtrlDropped++
	return true
}

// rejectInstall records a refused Install and tells the agent why with an
// InstallErr reply carrying the offending Seq. The refusal degrades, never
// breaks: the previously installed program (or the default one) keeps
// controlling the flow, and the §5 fallback machinery is untouched; the
// reply names that program, whole, and its epoch.
func (d *CCP) rejectInstall(seq uint32, err error) {
	d.n.InstallRejects++
	reason := err.Error()
	if len(reason) > 255 {
		reason = reason[:252] + "..."
	}
	m := &proto.InstallErr{SID: d.cfg.SID, Seq: seq, Epoch: d.epoch, Reason: reason}
	if d.prog != nil { // nil only before Init; a program that decoded encodes
		m.Prog, _ = lang.MarshalProgram(d.prog)
	}
	d.send(m)
}

func (d *CCP) measureMode() lang.MeasureMode {
	if d.prog == nil {
		return lang.MeasureEWMA
	}
	return d.prog.Measure.Mode
}

// updateVars refreshes the packet-field and flow-variable slots from an ACK.
func (d *CCP) updateVars(s cc.AckSample) {
	if len(d.vars) == 0 {
		return
	}
	rtt := s.RTT.Seconds()
	if rtt == 0 && d.host != nil {
		rtt = d.host.SRTT().Seconds() // retransmission echo: use the filter
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
	if d.host == nil || len(d.vars) == 0 {
		return
	}
	d.vars[lang.FlowVarSlot(lang.FlowCwnd)] = float64(d.host.Cwnd())
	d.vars[lang.FlowVarSlot(lang.FlowRate)] = d.host.PacingRate()
	d.vars[lang.FlowVarSlot(lang.FlowMSS)] = float64(d.host.MSS())
	d.vars[lang.FlowVarSlot(lang.FlowSRTT)] = d.host.SRTT().Seconds()
	d.vars[lang.FlowVarSlot(lang.FlowMinRTT)] = d.host.MinRTT().Seconds()
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
			if !d.fallbackActive && d.host != nil {
				d.host.SetPacingRate(clampRate(rate))
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
	if d.host != nil {
		srtt = d.host.SRTT()
	}
	if srtt == 0 {
		srtt = 100 * time.Millisecond
	}
	return time.Duration(float64(srtt) * rtts)
}

// clampRate and clampCwnd hold program writes to the bounds the install-time
// verifier proves them against (absint.RateMax, absint.CwndMax).
func clampRate(bps float64) float64 {
	if bps < 0 {
		return 0
	}
	if bps > absint.RateMax {
		return absint.RateMax
	}
	return bps
}

func clampCwnd(bytes float64) int {
	if bytes < 0 {
		return 0 // the host floors it at one MSS
	}
	if bytes > absint.CwndMax {
		return absint.CwndMax
	}
	return int(bytes)
}

// stopTimer cancels *t if it is armed and clears it.
func stopTimer(t *cc.Timer) {
	if *t != nil {
		(*t).Stop()
		*t = nil
	}
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
