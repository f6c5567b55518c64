package lang

import (
	"fmt"
	"strings"
)

// MeasureMode selects how the datapath batches measurements (§2.3–2.4).
type MeasureMode uint8

const (
	// MeasureEWMA is the paper's §3 prototype behaviour: the datapath
	// reports the most recent ACK's values plus EWMA-filtered RTT, sending
	// rate and receiving rate. It requires no program-carried state.
	MeasureEWMA MeasureMode = iota
	// MeasureFold runs a fold function per packet (bounded state).
	MeasureFold
	// MeasureVector appends per-packet samples of the selected fields and
	// ships the whole vector at Report time (flexible, unbounded state).
	MeasureVector
	// MeasureRef stands in an Install for a measure half the flow already
	// runs: it names the half by its epoch, the ctrl Seq of the Install that
	// carried it whole, and only the control half crosses (Figure 1's "update",
	// where the other modes are "install"). It is a wire form and not a way to
	// measure: the Builder never produces it, Flow.Install and RestoreFlow
	// refuse it, and the datapath resolves it to the artifact it stands for
	// before anything is validated. Stand-alone — a captured Install read by a
	// tool — it decodes, validates and analyzes as a program with no registers:
	// the control half is checked against the built-in variables, and a read of
	// one of the named half's registers is an unknown variable there.
	MeasureRef
)

func (m MeasureMode) String() string {
	switch m {
	case MeasureEWMA:
		return "ewma"
	case MeasureFold:
		return "fold"
	case MeasureVector:
		return "vector"
	case MeasureRef:
		return "ref"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// MeasureSpec describes the measurement half of a control program.
type MeasureSpec struct {
	Mode   MeasureMode
	Fold   *FoldSpec // Mode == MeasureFold
	Fields []Field   // Mode == MeasureVector
	Epoch  uint32    // Mode == MeasureRef; never 0, the epoch no Install has
}

// Instr is one control-program primitive (Table 2).
type Instr interface {
	instr()
	String() string
}

// SetRate sets the pacing rate (bytes/sec) to the value of E.
type SetRate struct{ E Expr }

// SetCwnd sets the congestion window (bytes) to the value of E.
type SetCwnd struct{ E Expr }

// Wait pauses the program for Seconds (an expression, in seconds),
// gathering measurements meanwhile.
type Wait struct{ Seconds Expr }

// WaitRtts pauses the program for Rtts round-trip times (WaitRtts(α) ==
// Wait(α · srtt)).
type WaitRtts struct{ Rtts Expr }

// Report sends the gathered measurements to the CCP agent and, in fold
// mode, resets the registers.
type Report struct{}

func (SetRate) instr()  {}
func (SetCwnd) instr()  {}
func (Wait) instr()     {}
func (WaitRtts) instr() {}
func (Report) instr()   {}

func (i SetRate) String() string  { return fmt.Sprintf("Rate(%s)", i.E) }
func (i SetCwnd) String() string  { return fmt.Sprintf("Cwnd(%s)", i.E) }
func (i Wait) String() string     { return fmt.Sprintf("Wait(%s)", i.Seconds) }
func (i WaitRtts) String() string { return fmt.Sprintf("WaitRtts(%s)", i.Rtts) }
func (Report) String() string     { return "Report()" }

// Program is a complete control program the agent installs into the
// datapath: a measurement specification, an instruction sequence that loops
// when it reaches the end (BBR's repeating pulse pattern relies on this),
// and the urgency configuration for congestion signals.
type Program struct {
	Measure MeasureSpec
	Instrs  []Instr
	// UrgentECN reports ECN marks immediately instead of batching them.
	// Loss (triple duplicate ACK) and timeouts are always urgent (§2.1).
	UrgentECN bool
}

// InstrExpr returns the expression an instruction evaluates, or nil for
// Report (and for instruction types this package does not define).
func InstrExpr(in Instr) Expr {
	switch n := in.(type) {
	case SetRate:
		return n.E
	case SetCwnd:
		return n.E
	case Wait:
		return n.Seconds
	case WaitRtts:
		return n.Rtts
	}
	return nil
}

// Validate checks the program is well-formed and all expressions resolve:
// the measure half first, then the control half against its register names.
func (p *Program) Validate() error {
	scope, err := p.Measure.validate()
	if err != nil {
		return err
	}
	return ValidateControl(p.Instrs, scope.resolve)
}

// validate checks the measure half on its own and returns the scope the
// control half resolves in (no registers outside fold mode).
func (m *MeasureSpec) validate() (regScope, error) {
	switch m.Mode {
	case MeasureEWMA:
	case MeasureFold:
		if m.Fold == nil {
			return regScope{}, fmt.Errorf("lang: fold mode without a fold spec")
		}
		return m.Fold.validate()
	case MeasureVector:
		if len(m.Fields) == 0 {
			return regScope{}, fmt.Errorf("lang: vector mode without fields")
		}
		for _, f := range m.Fields {
			if f >= NumPktFields {
				return regScope{}, fmt.Errorf("lang: invalid vector field %d", f)
			}
		}
	case MeasureRef:
		if m.Epoch == 0 {
			return regScope{}, fmt.Errorf("lang: reference to epoch 0")
		}
	default:
		return regScope{}, fmt.Errorf("lang: invalid measure mode %d", m.Mode)
	}
	return regScope{}, nil
}

// ValidateControl checks the control half: every instruction is one this
// package defines and evaluates a whole expression whose every variable
// resolves (resolve is the StdResolver over the measure half's register
// names).
func ValidateControl(instrs []Instr, resolve Resolver) error {
	for i, in := range instrs {
		switch in.(type) {
		case Report:
			continue
		case SetRate, SetCwnd, Wait, WaitRtts:
		default:
			return fmt.Errorf("lang: unknown instruction %T", in)
		}
		var c exprCheck
		c.walk(InstrExpr(in), resolve)
		if c.nilNode {
			return fmt.Errorf("lang: nil expression in instruction %d (%T)", i, in)
		}
		if c.hasUnknown {
			return fmt.Errorf("lang: program references unknown variable %q", c.unknown)
		}
	}
	return nil
}

// RegNames returns the measurement field names a Report will carry, in
// order: fold register names, vector field names, or the EWMA defaults (none
// for a reference, whose reports are the named measure half's). The EWMA
// defaults are EWMAReportNames' list: shared, do not modify.
func (p *Program) RegNames() []string {
	switch p.Measure.Mode {
	case MeasureFold:
		return p.Measure.Fold.RegNames()
	case MeasureVector:
		names := make([]string, len(p.Measure.Fields))
		for i, f := range p.Measure.Fields {
			names[i] = f.String()
		}
		return names
	case MeasureRef:
		return nil
	default:
		return EWMAReportNames()
	}
}

// String renders the program in the paper's dotted-call syntax.
func (p *Program) String() string {
	parts := make([]string, 0, len(p.Instrs)+1)
	switch p.Measure.Mode {
	case MeasureFold:
		parts = append(parts, fmt.Sprintf("Measure(fold:%d regs)", len(p.Measure.Fold.Regs)))
	case MeasureVector:
		fields := make([]string, len(p.Measure.Fields))
		for i, f := range p.Measure.Fields {
			fields[i] = strings.TrimPrefix(f.String(), "pkt.")
		}
		parts = append(parts, fmt.Sprintf("Measure(%s)", strings.Join(fields, ", ")))
	case MeasureRef:
		parts = append(parts, fmt.Sprintf("Measure(ref:%d)", p.Measure.Epoch))
	default:
		parts = append(parts, "Measure(ewma)")
	}
	for _, in := range p.Instrs {
		parts = append(parts, in.String())
	}
	return strings.Join(parts, ".")
}

// EWMA-mode report layout (§3 prototype): fixed names, in this order.
const (
	EWMARtt     = "rtt"      // EWMA-filtered RTT, seconds
	EWMASndRate = "snd_rate" // EWMA sending rate, bytes/sec
	EWMARcvRate = "rcv_rate" // EWMA delivery rate, bytes/sec
	EWMAAcked   = "acked"    // bytes acked since last report
	EWMALost    = "lost"     // bytes lost since last report
	EWMAEcnFrac = "ecn_frac" // fraction of acked packets with CE marks
	EWMALastRtt = "last_rtt" // most recent raw RTT sample, seconds
)

var ewmaReportNames = []string{EWMARtt, EWMASndRate, EWMARcvRate, EWMAAcked, EWMALost, EWMAEcnFrac, EWMALastRtt}

// EWMAReportNames returns the EWMA-mode report field names in order. Every
// call returns the same list — each default-program flow on an agent decodes
// its reports under it — so it is shared, do not modify (its capacity is its
// length: an append copies).
func EWMAReportNames() []string { return ewmaReportNames }

// Builder assembles a Program fluently, mirroring the paper's
// Measure(...).Rate(...).WaitRtts(1.0).Report() notation.
type Builder struct {
	p Program
}

// builderInstrs is the instruction capacity a Builder starts with: the
// per-report shape Cwnd(v).WaitRtts(k).Report() and its Rate-and-Cwnd variant
// fit without the list growing 1, 2, 4 under them.
const builderInstrs = 4

// NewProgram returns an empty Builder in EWMA measurement mode.
func NewProgram() *Builder { return &Builder{} }

func (b *Builder) add(in Instr) *Builder {
	if b.p.Instrs == nil {
		b.p.Instrs = make([]Instr, 0, builderInstrs)
	}
	b.p.Instrs = append(b.p.Instrs, in)
	return b
}

// MeasureEWMA selects the default EWMA measurement mode.
func (b *Builder) MeasureEWMA() *Builder {
	b.p.Measure = MeasureSpec{Mode: MeasureEWMA}
	return b
}

// MeasureFold selects fold-function measurement.
func (b *Builder) MeasureFold(f *FoldSpec) *Builder {
	b.p.Measure = MeasureSpec{Mode: MeasureFold, Fold: f}
	return b
}

// MeasureVector selects per-packet vector measurement of the given fields.
func (b *Builder) MeasureVector(fields ...Field) *Builder {
	b.p.Measure = MeasureSpec{Mode: MeasureVector, Fields: fields}
	return b
}

// Rate appends Rate(e).
func (b *Builder) Rate(e Expr) *Builder {
	return b.add(SetRate{e})
}

// Cwnd appends Cwnd(e).
func (b *Builder) Cwnd(e Expr) *Builder {
	return b.add(SetCwnd{e})
}

// Wait appends Wait(seconds).
func (b *Builder) Wait(seconds float64) *Builder { return b.WaitExpr(C(seconds)) }

// WaitExpr appends Wait(e) with e in seconds.
func (b *Builder) WaitExpr(e Expr) *Builder {
	return b.add(Wait{e})
}

// WaitRtts appends WaitRtts(alpha).
func (b *Builder) WaitRtts(alpha float64) *Builder { return b.WaitRttsExpr(C(alpha)) }

// WaitRttsExpr appends WaitRtts(e).
func (b *Builder) WaitRttsExpr(e Expr) *Builder {
	return b.add(WaitRtts{e})
}

// Report appends Report().
func (b *Builder) Report() *Builder {
	return b.add(Report{})
}

// UrgentECN marks ECN signals as urgent for this program.
func (b *Builder) UrgentECN() *Builder {
	b.p.UrgentECN = true
	return b
}

// Build validates and returns the program.
func (b *Builder) Build() (*Program, error) {
	p := b.p
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// MustBuild is Build for statically known-good programs; it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
