package lang

import "fmt"

// Field identifies a per-packet measurement the datapath exposes to fold
// functions and can record into measurement vectors. These are the primitives
// of Table 1: RTT, delivered/sending rates, loss, ECN, and custom packet
// header fields (the XCP row).
type Field uint8

// Per-packet fields. Units: seconds for times, bytes for sizes, bytes/second
// for rates; booleans are 0/1.
const (
	FieldRTT      Field = iota // "pkt.rtt": RTT sample of the acked packet
	FieldAcked                 // "pkt.acked": bytes newly acknowledged
	FieldSacked                // "pkt.sacked": bytes newly selectively acked
	FieldLost                  // "pkt.lost": bytes newly declared lost
	FieldECN                   // "pkt.ecn": 1 if this ACK echoed a CE mark
	FieldSndRate               // "pkt.snd_rate": measured sending rate
	FieldRcvRate               // "pkt.rcv_rate": measured delivery rate
	FieldInflight              // "pkt.inflight": bytes in flight after this ACK
	FieldHdrRate               // "pkt.hdr_rate": router-stamped header rate (XCP-style)
	FieldNow                   // "pkt.now": datapath clock, seconds since flow start
	NumPktFields
)

var fieldNames = [NumPktFields]string{
	"pkt.rtt", "pkt.acked", "pkt.sacked", "pkt.lost", "pkt.ecn",
	"pkt.snd_rate", "pkt.rcv_rate", "pkt.inflight", "pkt.hdr_rate", "pkt.now",
}

// String returns the field's variable name.
func (f Field) String() string {
	if f < NumPktFields {
		return fieldNames[f]
	}
	return fmt.Sprintf("pkt.field(%d)", uint8(f))
}

// FieldByName maps "pkt.rtt"-style names to Fields.
func FieldByName(name string) (Field, bool) {
	for i := range fieldNames { // by index: ranging over the array's values copies it
		if fieldNames[i] == name {
			return Field(i), true
		}
	}
	return 0, false
}

// FlowVar identifies a per-flow control variable maintained by the datapath
// and readable from both fold functions and control programs.
type FlowVar uint8

// Flow variables. These are referenced by bare names in programs ("cwnd",
// "rate"), matching the paper's examples like Rate(1.25*rate).
const (
	FlowCwnd   FlowVar = iota // "cwnd": congestion window, bytes
	FlowRate                  // "rate": pacing rate, bytes/sec
	FlowMSS                   // "mss": maximum segment size, bytes
	FlowSRTT                  // "srtt": smoothed RTT, seconds
	FlowMinRTT                // "min_rtt": minimum observed RTT, seconds
	NumFlowVars
)

var flowVarNames = [NumFlowVars]string{"cwnd", "rate", "mss", "srtt", "min_rtt"}

// String returns the flow variable's name.
func (v FlowVar) String() string {
	if v < NumFlowVars {
		return flowVarNames[v]
	}
	return fmt.Sprintf("flow.var(%d)", uint8(v))
}

// FlowVarByName maps names to FlowVars.
func FlowVarByName(name string) (FlowVar, bool) {
	for i := range flowVarNames {
		if flowVarNames[i] == name {
			return FlowVar(i), true
		}
	}
	return 0, false
}

// Variable-table layout shared between lang (compilation) and the datapath
// (execution): packet fields first, then flow variables, then fold registers.

// PktFieldSlot returns the variable-table slot of a packet field.
func PktFieldSlot(f Field) int { return int(f) }

// FlowVarSlot returns the variable-table slot of a flow variable.
func FlowVarSlot(v FlowVar) int { return int(NumPktFields) + int(v) }

// RegSlot returns the variable-table slot of the i-th fold register.
func RegSlot(i int) int { return int(NumPktFields) + int(NumFlowVars) + i }

// VarTableSize returns the table size for a program with nregs registers.
func VarTableSize(nregs int) int { return RegSlot(nregs) }

// Resolver maps variable names to slots in the datapath's variable table.
type Resolver func(name string) (slot int, ok bool)

// StdResolver resolves packet fields, flow variables, and the given fold
// register names to the standard layout. Register names shadow nothing:
// reserved names are rejected at fold validation time.
func StdResolver(regNames []string) Resolver {
	regIdx := make(map[string]int, len(regNames))
	for i, n := range regNames {
		regIdx[n] = i
	}
	return func(name string) (int, bool) {
		if i, ok := regIdx[name]; ok {
			return RegSlot(i), true
		}
		return builtinSlot(name)
	}
}

// builtinSlot resolves a packet field or flow variable.
func builtinSlot(name string) (int, bool) {
	if f, ok := FieldByName(name); ok {
		return PktFieldSlot(f), true
	}
	if v, ok := FlowVarByName(name); ok {
		return FlowVarSlot(v), true
	}
	return 0, false
}

// numBuiltins is the number of built-in variables: the slots below RegSlot(0).
const numBuiltins = int(NumPktFields) + int(NumFlowVars)

// builtinVars is each built-in variable, by slot, as an expression, and
// smallConsts each whole constant 0..255: made once, so the program decoder
// hands out the same immutable node wherever one is read instead of making a
// name and an interface value per occurrence.
var (
	builtinVars [numBuiltins]Expr
	smallConsts [256]Expr
)

func init() {
	for i, n := range fieldNames {
		builtinVars[PktFieldSlot(Field(i))] = Var(n)
	}
	for i, n := range flowVarNames {
		builtinVars[FlowVarSlot(FlowVar(i))] = Var(n)
	}
	for i := range smallConsts {
		smallConsts[i] = Const(i)
	}
}

// regScanMax is the largest fold whose register names are looked up by
// scanning the declarations. The folds that exist declare two to four
// registers, where a scan beats building a map and allocates nothing; a wire
// program may declare up to maxListLen, so past this size the scope is
// indexed.
const regScanMax = 8

// regScope is the names a fold's updates and a program's control half may
// read — the fold's registers over the built-in packet fields and flow
// variables — resolved against the declarations themselves, to the slots
// StdResolver gives.
type regScope struct {
	regs []RegDef
	idx  map[string]int // nil up to regScanMax registers
}

func newRegScope(nregs int) regScope {
	if nregs > regScanMax {
		return regScope{idx: make(map[string]int, nregs)}
	}
	return regScope{}
}

// scopeOf is the scope of a whole register list that need not be valid: of
// two registers with one name the first is the one found.
func scopeOf(regs []RegDef) regScope {
	s := newRegScope(len(regs))
	s.regs = regs
	if s.idx != nil {
		for i := len(regs) - 1; i >= 0; i-- {
			s.idx[regs[i].Name] = i
		}
	}
	return s
}

// declare extends the scope to regs, one register longer than it was.
func (s *regScope) declare(regs []RegDef) {
	s.regs = regs
	if s.idx != nil {
		s.idx[regs[len(regs)-1].Name] = len(regs) - 1
	}
}

func (s *regScope) reg(name string) (int, bool) {
	if s.idx != nil {
		i, ok := s.idx[name]
		return i, ok
	}
	for i := range s.regs {
		if s.regs[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// resolve is the scope as a Resolver.
func (s *regScope) resolve(name string) (int, bool) {
	if i, ok := s.reg(name); ok {
		return RegSlot(i), true
	}
	return builtinSlot(name)
}

// Reserved reports whether name collides with a built-in variable.
func Reserved(name string) bool {
	_, ok := builtinSlot(name)
	return ok
}
