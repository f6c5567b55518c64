package core

import (
	"bytes"
	"fmt"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// FlowInfo describes a flow as announced by its datapath.
type FlowInfo struct {
	SID      uint32
	MSS      int
	InitCwnd int // bytes
	SrcAddr  string
	DstAddr  string
	// Alg is the algorithm the datapath requested (may be empty).
	Alg string
}

// Policy is the agent-imposed clamp on a flow's decisions (§2: "the agent
// ... imposes policies on the decisions of the congestion control
// algorithms, e.g., per-connection maximum transmission rates").
type Policy struct {
	// MaxRateBps caps the pacing rate in bytes/sec (0 = unlimited).
	MaxRateBps float64
	// MaxCwndBytes caps the congestion window (0 = unlimited).
	MaxCwndBytes int
}

// PolicyFunc selects the policy for a new flow.
type PolicyFunc func(info FlowInfo) Policy

// flowShared is what every flow of one agent holds in common, reached through
// one pointer so a Flow carries no per-flow copy of it: the storage each
// outgoing message is built in. The send path only borrows a message for the
// duration of the call (see Flow.send), and an agent makes one decision at a
// time under its lock, so one block per agent serves all its flows and a
// decision allocates nothing.
type flowShared struct {
	setCwnd   proto.SetCwnd
	setRate   proto.SetRate
	install   proto.Install
	heartbeat proto.Heartbeat
	// refProg is the storage an Install by reference is encoded in: borrowed by
	// send like the message that points at it, it grows to the largest control
	// half the agent has sent and is then reused.
	refProg []byte

	// Counted here, where a Flow can reach them: Agent.Stats reads them into
	// AgentStats.InstallsByRef and RefResends.
	installsByRef int
	refResends    int
}

// Flow is the algorithm's handle on one datapath flow: it carries flow
// metadata and the Install/SetCwnd/SetRate channel back to the datapath,
// with the agent's policy applied.
//
// A Flow's methods are for its algorithm's callbacks (Init, OnMeasurement,
// OnUrgent), which the agent serializes; they are not safe to call from
// another goroutine while the agent is dispatching.
type Flow struct {
	Info   FlowInfo
	policy Policy
	// send transmits toward the flow's datapath. It borrows the message for
	// the duration of the call: the message is the agent's scratch, rewritten
	// by the next decision, so an implementation that keeps it must clone.
	send func(proto.Msg) error
	// shared is the owning agent's block, never nil; a flow made outside an
	// agent (Describe's probe) is given its own.
	shared *flowShared

	installed *lang.Program
	// progBytes is the wire encoding of installed, kept so snapshots carry
	// the program without re-marshalling it per snapshot tick.
	progBytes []byte

	// Datapath install-refusal tracking: prevInstalled/prevProgBytes hold the
	// program the datapath was running before the newest Install, so an
	// InstallErr for that Install rolls the agent's view back to what is
	// actually live (report-name alignment depends on it). lastInstallSeq is
	// the control sequence of the newest Install sent.
	//
	// wholeSeq is the Seq of the newest Install sent whole — the epoch its
	// measure half has at the datapath once applied — and wholeLen that half's
	// length in progBytes, or 0 when a later Install may not refer to it: the
	// program was EWMA-mode, which has no shorter reference form, it went
	// nowhere (a restored flow not yet adopted), or the datapath refused it.
	// Every Install sent after wholeSeq, up to lastInstallSeq, was a reference
	// to it.
	prevInstalled  *lang.Program
	prevProgBytes  []byte
	lastInstallSeq uint32
	wholeSeq       uint32
	installErrs    int
	lastInstallErr string

	// ctrlSeq numbers outgoing control messages (Install, SetCwnd, SetRate)
	// in one shared sequence space, so the datapath can discard reordered or
	// duplicated copies of superseded decisions. It starts from the Seq the
	// datapath announced in Create, which on a resync is the newest sequence
	// it has applied — a restarted agent resumes numbering above it instead
	// of looking stale.
	ctrlSeq  uint32
	wholeLen uint32

	// Stats observed by the agent for this flow.
	reports int
	urgents int

	// names caches reportNames' result: report dispatch is the agent's hot
	// path and the name list only changes on Install.
	names []string
}

// nextSeq allocates the next control sequence number, skipping 0 on wrap
// (seq 0 marks an unsequenced message on the wire).
func (f *Flow) nextSeq() uint32 {
	f.ctrlSeq++
	if f.ctrlSeq == 0 {
		f.ctrlSeq = 1
	}
	return f.ctrlSeq
}

// emit transmits one agent→datapath message. A flow restored from a
// snapshot has no channel until its datapath's first message reaches the
// promoted agent (see Agent.RestoreFlow); decisions made before that are
// dropped — the datapath keeps enforcing the last state it applied.
func (f *Flow) emit(m proto.Msg) error {
	if f.send == nil {
		return nil
	}
	return f.send(m)
}

// Install sends a control program to the datapath, first rewriting it under
// the flow's policy: every Rate expression is clamped with min(e, maxRate)
// and every Cwnd expression with min(e, maxCwnd). Expression rewriting means
// the policy holds even between agent decisions, inside the datapath.
//
// What crosses is the whole program, or — when its measure half is byte for
// byte the one the last whole Install carried, as it is for an algorithm that
// answers every report by moving a constant in its control half — a reference
// to that Install and the control half alone (lang.AppendRef). Either way the
// flow keeps the whole encoding: snapshots and rollback never see a reference.
func (f *Flow) Install(p *lang.Program) error {
	if p == nil {
		return fmt.Errorf("core: nil program")
	}
	if p.Measure.Mode == lang.MeasureRef {
		return fmt.Errorf("core: a program is installed whole; the reference form is chosen here")
	}
	clamped := f.applyPolicy(p)
	if err := clamped.Validate(); err != nil {
		return err
	}
	data, n, err := lang.MarshalHalves(clamped)
	if err != nil {
		return err
	}
	// f.progBytes is the last program sent, whole or by reference to the
	// same half, so its first wholeLen bytes are the half wholeSeq names.
	byRef := n == int(f.wholeLen) && bytes.Equal(data[:n], f.progBytes[:n])
	seq := f.nextSeq()
	m := &f.shared.install
	*m = proto.Install{SID: f.Info.SID, Seq: seq, Prog: data}
	if byRef {
		f.shared.refProg = lang.AppendRef(f.shared.refProg[:0], f.wholeSeq, data[n:])
		m.Prog = f.shared.refProg
	}
	if err := f.emit(m); err != nil {
		return err
	}
	if byRef {
		f.shared.installsByRef++
	} else {
		// An EWMA-mode measure half is shorter than a reference to it, and
		// what a flow still without a channel sends (emit) reaches nobody.
		f.wholeSeq, f.wholeLen = seq, 0
		if clamped.Measure.Mode != lang.MeasureEWMA && f.send != nil {
			f.wholeLen = uint32(n)
		}
	}
	f.prevInstalled, f.prevProgBytes = f.installed, f.progBytes
	f.lastInstallSeq = seq
	f.installed = clamped
	f.progBytes = data
	// Report field names follow the installed program; an algorithm that
	// installs per report sends the same names every time.
	if !reportsAs(clamped, f.names) {
		f.names = nil
	}
	return nil
}

// reportsAs reports whether p's reports carry exactly names (RegNames equal
// to names), comparing in place.
func reportsAs(p *lang.Program, names []string) bool {
	switch p.Measure.Mode {
	case lang.MeasureFold:
		regs := p.Measure.Fold.Regs
		if len(regs) != len(names) {
			return false
		}
		for i := range regs {
			if regs[i].Name != names[i] {
				return false
			}
		}
		return true
	case lang.MeasureVector:
		fields := p.Measure.Fields
		if len(fields) != len(names) {
			return false
		}
		for i, fld := range fields {
			if fld.String() != names[i] {
				return false
			}
		}
		return true
	}
	return false
}

// noteInstallErr records a datapath install refusal; what else it does depends
// on which Install was refused.
//
// One sent before the newest whole Install is history: that Install
// superseded it, and the two ends agree again if it was applied.
//
// The newest whole Install itself: no later Install may refer to it. If it is
// also the newest Install of all, the agent's view of the installed program
// rolls back to the one the datapath actually kept, so report-field naming
// stays aligned; refused but already superseded, it only counts.
//
// One sent after it, which is to say a reference: the program was not
// necessarily at fault — the datapath may not hold the half it named (the
// whole Install was lost, overtaken, or stale on arrival) — and a verdict on a
// control half alone settles nothing. So there is nothing to roll back: the
// newest program's kept bytes go again, whole, at once and under a fresh Seq,
// instead of the flow running an older control half until its next report,
// and the refusals of the references sent meanwhile are history by the rule
// above. Refused whole, it rolls back like any other.
func (f *Flow) noteInstallErr(seq uint32, reason string) {
	f.installErrs++
	f.lastInstallErr = reason
	switch {
	case seq == 0 || proto.SeqNewer(f.wholeSeq, seq) || proto.SeqNewer(seq, f.lastInstallSeq):
		// Unsequenced, superseded, or no Install of this flow's at all.
	case seq == f.wholeSeq:
		f.wholeLen = 0
		if seq == f.lastInstallSeq {
			f.installed, f.progBytes = f.prevInstalled, f.prevProgBytes
			f.names = nil
		}
	default:
		m := &f.shared.install
		*m = proto.Install{SID: f.Info.SID, Seq: f.nextSeq(), Prog: f.progBytes}
		if f.emit(m) != nil {
			f.wholeLen = 0 // the channel is gone too; the next Install goes whole
			return
		}
		f.shared.refResends++
		f.lastInstallSeq, f.wholeSeq = m.Seq, m.Seq
	}
}

// SetCwnd directly sets the congestion window (bytes), clamped by policy.
// It is the degenerate control path for datapaths without program support.
func (f *Flow) SetCwnd(bytes int) error {
	if f.policy.MaxCwndBytes > 0 && bytes > f.policy.MaxCwndBytes {
		bytes = f.policy.MaxCwndBytes
	}
	if bytes < 0 {
		bytes = 0
	}
	m := &f.shared.setCwnd
	*m = proto.SetCwnd{SID: f.Info.SID, Seq: f.nextSeq(), Bytes: uint32(bytes)}
	return f.emit(m)
}

// SetRate directly sets the pacing rate (bytes/sec), clamped by policy.
func (f *Flow) SetRate(bps float64) error {
	if f.policy.MaxRateBps > 0 && bps > f.policy.MaxRateBps {
		bps = f.policy.MaxRateBps
	}
	if bps < 0 {
		bps = 0
	}
	m := &f.shared.setRate
	*m = proto.SetRate{SID: f.Info.SID, Seq: f.nextSeq(), Bps: bps}
	return f.emit(m)
}

// Installed returns the most recently installed (policy-rewritten) program,
// or nil before the first Install.
//
//lint:testsupport the agent's view of the program that core's install tests and bridge's TestReferenceInterleavings compare against the datapath's
func (f *Flow) Installed() *lang.Program { return f.installed }

// applyPolicy rewrites p's control expressions under the flow policy.
func (f *Flow) applyPolicy(p *lang.Program) *lang.Program {
	if f.policy.MaxRateBps <= 0 && f.policy.MaxCwndBytes <= 0 {
		return p
	}
	out := *p
	out.Instrs = make([]lang.Instr, len(p.Instrs))
	for i, in := range p.Instrs {
		switch n := in.(type) {
		case lang.SetRate:
			if f.policy.MaxRateBps > 0 {
				out.Instrs[i] = lang.SetRate{E: lang.Min(n.E, lang.C(f.policy.MaxRateBps))}
			} else {
				out.Instrs[i] = n
			}
		case lang.SetCwnd:
			if f.policy.MaxCwndBytes > 0 {
				out.Instrs[i] = lang.SetCwnd{E: lang.Min(n.E, lang.C(float64(f.policy.MaxCwndBytes)))}
			} else {
				out.Instrs[i] = n
			}
		default:
			out.Instrs[i] = in
		}
	}
	return &out
}

// reportNames returns the field names for incoming scalar measurements,
// based on the installed program (EWMA defaults before any install, one list
// for every flow: lang.EWMAReportNames). The list is cached until the next
// Install and never written to.
func (f *Flow) reportNames() []string {
	if f.names == nil {
		if f.installed == nil {
			f.names = lang.EWMAReportNames()
		} else {
			f.names = f.installed.RegNames()
		}
	}
	return f.names
}

// vectorFields returns the per-packet fields for vector measurements.
func (f *Flow) vectorFields() []lang.Field {
	if f.installed == nil {
		return nil
	}
	return f.installed.Measure.Fields
}
