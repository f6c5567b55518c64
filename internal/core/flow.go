package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/ccp-repro/ccp/internal/bufpool"
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
// outgoing message is built and marshalled in, and the report layouts. The
// send path only borrows a frame for the duration of the call (see lend), and
// an agent, which has one owner, makes one decision at a time, so one block
// per agent serves all its flows and a decision allocates nothing.
type flowShared struct {
	setCwnd   proto.SetCwnd
	setRate   proto.SetRate
	install   proto.Install
	heartbeat proto.Heartbeat
	// refProg is the storage an Install by reference is encoded in; it grows
	// to the largest control half the agent has sent and is then reused.
	refProg []byte
	// out is the frame every decision is marshalled into and lent to its
	// reply; it grows to the largest decision the agent has sent.
	out     []byte
	layouts []*reportLayout // shared by its flows (layoutOf)

	// stats are the agent's counters, here where a Flow can count its
	// InstallsByRef and RefResends.
	stats AgentStats
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
	// send transmits a frame toward the flow's datapath (see lend).
	send func(frame []byte) error
	// shared is the owning agent's block, never nil; a flow made outside an
	// agent (Describe's probe) is given its own.
	shared *flowShared

	// progBytes is the program last installed, whole, kept so snapshots carry
	// it without re-marshalling it and a resend has it to send; after a
	// refusal, the program the datapath said it runs (takeProgram).
	progBytes []byte

	// epochs names reports by their epoch (named): the run in force as of the
	// newest report, or as the flow was made, and the run sent since, if any.
	epochs [2]epochRun

	// ctrlSeq numbers outgoing control messages (Install, SetCwnd, SetRate)
	// in one shared sequence space, so the datapath can discard reordered or
	// duplicated copies of superseded decisions. It starts from 0 for a fresh
	// datapath, and ctrlSeqSkip above the Seq a resync Create announced (the
	// newest sequence the datapath had applied) or a snapshot recorded, so
	// that a restarted agent numbers above anything in flight instead of
	// looking stale (skipPast).
	ctrlSeq uint32
	// wholeLen is the length in progBytes of the newest whole Install's
	// measure half, or 0 when a later Install may not refer to it: the program
	// was EWMA-mode, which has no shorter reference form, it went nowhere (a
	// restored flow not yet adopted), or the datapath refused it.
	wholeLen uint32
}

// emit transmits one agent→datapath message. A flow restored from a
// snapshot has no channel until its datapath's first message reaches the
// promoted agent (see Agent.RestoreFlow); decisions made before that are
// dropped — the datapath keeps enforcing the last state it applied.
func (f *Flow) emit(m proto.Msg) error {
	if f.send == nil {
		return nil
	}
	return f.shared.lend(m, f.send)
}

// lend marshals m into the agent's output frame and lends the frame to send
// for the duration of the call: the next decision is marshalled over it, so a
// send that keeps the bytes past its return must copy them (under -tags
// debugpool they are overwritten as soon as it returns). This is the one
// place a decision is marshalled, and the one place one that does not
// marshal is counted (Errors).
func (s *flowShared) lend(m proto.Msg, send func(frame []byte) error) error {
	out, err := proto.AppendMarshal(s.out[:0], m)
	if err != nil {
		atomic.AddInt64(&s.stats.Errors, 1)
		return err
	}
	s.out = out
	err = send(out)
	if bufpool.DebugEnabled {
		for i := range out {
			out[i] = 0xDB // the byte bufpool poisons a released frame with
		}
	}
	return err
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
// flow keeps the whole encoding: snapshots and resends never see a reference.
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
	// same half, so its first wholeLen bytes are the newest whole Install's.
	byRef := n == int(f.wholeLen) && bytes.Equal(data[:n], f.progBytes[:n])
	seq := proto.NextSeq(&f.ctrlSeq)
	m := &f.shared.install
	*m = proto.Install{SID: f.Info.SID, Seq: seq, Prog: data}
	if byRef {
		f.shared.refProg = lang.AppendRef(f.shared.refProg[:0], f.newest().last, data[n:])
		m.Prog = f.shared.refProg
	}
	if err := f.emit(m); err != nil {
		return err
	}
	f.progBytes = data
	if byRef {
		atomic.AddInt64(&f.shared.stats.InstallsByRef, 1)
		return nil
	}
	// An EWMA-mode measure half is shorter than a reference to it, and
	// what a flow still without a channel sends (emit) reaches nobody.
	f.wholeLen = 0
	if clamped.Measure.Mode != lang.MeasureEWMA && f.send != nil {
		f.wholeLen = uint32(n)
	}
	f.sentWhole(seq, f.shared.layoutOf(clamped))
	return nil
}

// epochRun is the epochs first through last that share one report layout: a
// run of whole Installs the flow sent (the Seqs between are its own
// references and direct decisions, never an epoch), or the one epoch a flow
// was made with — 0, the default program, or a snapshot's. No layout, no run.
type epochRun struct {
	first, last uint32
	layout      *reportLayout
}

// newest is the run of the newest program the flow sent, or the one it was
// made with before it sent any.
func (f *Flow) newest() *epochRun {
	if f.epochs[1].layout != nil {
		return &f.epochs[1]
	}
	return &f.epochs[0]
}

// sentWhole records a whole Install numbered seq, whose reports are laid out
// as l, in the run sent since: a third layout sent before a report names the
// second forgets the second, whose reports are then of an unknown epoch.
func (f *Flow) sentWhole(seq uint32, l *reportLayout) {
	if r := &f.epochs[1]; r.layout == l {
		r.last = seq
	} else {
		*r = epochRun{seq, seq, l}
	}
}

// holds reports whether epoch e is one of r's.
func (r epochRun) holds(e uint32) bool {
	return r.layout != nil && !proto.SeqNewer(r.first, e) && !proto.SeqNewer(e, r.last)
}

// named returns the layout of a report of epoch e, or nil for an epoch the
// flow cannot name. A report of the run sent since puts that run in force:
// the datapath applies epochs in order and reports arrive admitted in order.
func (f *Flow) named(e uint32) *reportLayout {
	switch {
	case f.epochs[1].holds(e):
		f.epochs[0], f.epochs[1] = f.epochs[1], epochRun{}
	case !f.epochs[0].holds(e):
		return nil
	}
	return f.epochs[0].layout
}

// takeProgram puts prog, the whole program a datapath runs as epoch e, laid
// out as l, in force: the flow keeps the bytes, its run of e is cut back to e
// (or e makes a run), and the next Install goes whole. It reports false,
// changing nothing, when the run that holds e is laid out otherwise.
func (f *Flow) takeProgram(e uint32, prog []byte, l *reportLayout) bool {
	r := epochRun{e, e, l}
	for _, h := range f.epochs {
		if h.holds(e) {
			if h.layout != l {
				return false
			}
			r.first = h.first
		}
	}
	f.progBytes, f.epochs, f.wholeLen = bytes.Clone(prog), [2]epochRun{r}, 0
	return true
}

// programLayout returns the report layout of prog, a whole program (empty:
// a datapath's default), or an error for bytes that are not one.
func (s *flowShared) programLayout(prog []byte) (*reportLayout, error) {
	if len(prog) == 0 {
		return ewmaLayout, nil
	}
	p, err := lang.UnmarshalProgram(prog)
	if err == nil && p.Measure.Mode == lang.MeasureRef {
		err = fmt.Errorf("a reference, not a whole program")
	}
	if err != nil {
		return nil, err
	}
	return s.layoutOf(p), nil
}

// reportLayout is how a program's reports are laid out: a Measurement's value
// names and, in vector mode, the fields of each row. Never written, it is shared.
type reportLayout struct {
	names  []string
	fields []lang.Field
}

// ewmaLayout is an EWMA-mode program's layout, and epoch 0's: the datapath's
// default program is EWMA-mode (datapath.Config.DefaultProgram).
var ewmaLayout = &reportLayout{names: lang.EWMAReportNames()}

// maxLayouts bounds flowShared.layouts, past what an agent's algorithms use.
const maxLayouts = 16

// reportsAs reports whether p's reports are laid out as l says, in place.
func reportsAs(p *lang.Program, l *reportLayout) bool {
	switch p.Measure.Mode {
	case lang.MeasureFold:
		regs := p.Measure.Fold.Regs
		if l == nil || l.fields != nil || len(regs) != len(l.names) {
			return false
		}
		for i := range regs {
			if regs[i].Name != l.names[i] {
				return false
			}
		}
		return true
	case lang.MeasureVector:
		return l != nil && slices.Equal(p.Measure.Fields, l.fields)
	}
	return l == ewmaLayout
}

// layoutOf returns the layout of p's reports, one the agent keeps if it can,
// so that a flow changing programs allocates no layout made before.
func (s *flowShared) layoutOf(p *lang.Program) *reportLayout {
	mode := p.Measure.Mode
	if mode != lang.MeasureFold && mode != lang.MeasureVector {
		return ewmaLayout
	}
	for _, l := range s.layouts {
		if reportsAs(p, l) {
			return l
		}
	}
	l := &reportLayout{names: p.RegNames()}
	if mode == lang.MeasureVector {
		l.fields = slices.Clone(p.Measure.Fields)
	}
	if len(s.layouts) < maxLayouts {
		s.layouts = append(s.layouts, l)
	}
	return l
}

// noteInstallErr answers a datapath install refusal (the agent counts and logs
// it); what it does depends on which Install was refused.
//
// One sent before the newest whole Install is history: that Install
// superseded it.
//
// The newest whole Install, or a reference refused at the epoch the flow
// holds newest (the one it named): the program was at fault, and the flow
// takes the one the refusal names (takeProgram); a refusal that names no
// whole program laid out as the flow's run of its epoch counts in Errors.
//
// Any other reference: the datapath lacks the half it named (the whole
// Install was lost, overtaken, or stale on arrival), so the newest program
// goes again, whole (resend), and the refusals of the references sent
// meanwhile are history by the first rule.
func (f *Flow) noteInstallErr(v *proto.InstallErr) {
	whole := f.newest().last
	switch {
	case v.Seq == 0 || proto.SeqNewer(whole, v.Seq) || proto.SeqNewer(v.Seq, f.ctrlSeq):
		// Unsequenced, superseded, or no Install of this flow's at all.
	case v.Seq == whole || v.Epoch == whole:
		l, err := f.shared.programLayout(v.Prog)
		if err != nil || !f.takeProgram(v.Epoch, v.Prog, l) {
			atomic.AddInt64(&f.shared.stats.Errors, 1)
		}
	default:
		if f.resend() {
			atomic.AddInt64(&f.shared.stats.RefResends, 1)
		}
	}
}

// resend sends the kept program again, whole, under a fresh Seq, to a
// datapath shown not to hold it: by a refused reference (noteInstallErr) or
// a report of an epoch the flow cannot name (Agent.report). It reports
// whether a program went.
func (f *Flow) resend() bool {
	if len(f.progBytes) == 0 {
		return false
	}
	m := &f.shared.install
	*m = proto.Install{SID: f.Info.SID, Seq: proto.NextSeq(&f.ctrlSeq), Prog: f.progBytes}
	if f.emit(m) != nil {
		f.wholeLen = 0 // the channel is gone too; the next Install goes whole
		return false
	}
	f.sentWhole(m.Seq, f.newest().layout)
	return true
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
	*m = proto.SetCwnd{SID: f.Info.SID, Seq: proto.NextSeq(&f.ctrlSeq), Bytes: uint32(bytes)}
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
	*m = proto.SetRate{SID: f.Info.SID, Seq: proto.NextSeq(&f.ctrlSeq), Bps: bps}
	return f.emit(m)
}

// Installed returns the most recently installed (policy-rewritten) program,
// decoded from the bytes the flow keeps, or nil before the first Install.
//
//lint:testsupport the agent's view of the program that core's install tests and bridge's TestReferenceInterleavings compare against the datapath's
func (f *Flow) Installed() *lang.Program {
	p, _ := lang.UnmarshalProgram(f.progBytes)
	return p
}

// applyPolicy rewrites p's control expressions under the flow policy.
func (f *Flow) applyPolicy(p *lang.Program) *lang.Program {
	if f.policy.MaxRateBps <= 0 && f.policy.MaxCwndBytes <= 0 {
		return p
	}
	out := *p
	out.Instrs = slices.Clone(p.Instrs)
	for i, in := range out.Instrs {
		switch n := in.(type) {
		case lang.SetRate:
			if f.policy.MaxRateBps > 0 {
				out.Instrs[i] = lang.SetRate{E: lang.Min(n.E, lang.C(f.policy.MaxRateBps))}
			}
		case lang.SetCwnd:
			if f.policy.MaxCwndBytes > 0 {
				out.Instrs[i] = lang.SetCwnd{E: lang.Min(n.E, lang.C(float64(f.policy.MaxCwndBytes)))}
			}
		}
	}
	return &out
}
