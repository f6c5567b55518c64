package lang

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary serialization of Programs for the agent→datapath Install message.
// The format is versioned and self-delimiting; decoding is defensive (depth
// and length limits) because the datapath must survive malformed input.
//
// The encoding has two halves. The measure half — header, mode, and the
// fold's registers (with their Init values) and updates, or the vector's
// fields — is a self-delimiting prefix: every list carries its length and
// every expression its own shape, so where it ends is a function of its own
// bytes and never of what follows. The control half — instruction list and
// flags — is the rest. MeasurePrefixLen, UnmarshalMeasure and
// UnmarshalControl decode the halves separately; UnmarshalProgram is the two
// together.
//
// Within the measure half the Init values are the only bytes that steer
// nothing: every count, name length, tag and operator lies outside them. So
// two measure halves that agree everywhere but there (SameShape) take the
// decoder down the identical path and decode to specs that differ in their
// Inits alone — what an algorithm produces when it carries state from one
// Install to the next through a register's Init (Vegas's base_rtt).

const (
	progMagic   = 0xCC
	progVersion = 1

	exprTagConst = 0x01
	exprTagVar   = 0x02
	exprTagBin   = 0x03
	exprTagIf    = 0x04

	instrTagRate     = 0x10
	instrTagCwnd     = 0x11
	instrTagWait     = 0x12
	instrTagWaitRtts = 0x13
	instrTagReport   = 0x14

	maxNameLen   = 255
	maxExprDepth = 64
	maxListLen   = 4096
)

// MarshalProgram encodes p into one buffer sized up front. The program
// should be Validate()d first; the encoding itself does not re-validate
// semantics.
func MarshalProgram(p *Program) ([]byte, error) {
	b := make([]byte, 0, programSize(p))
	b = append(b, progMagic, progVersion, byte(p.Measure.Mode))
	switch p.Measure.Mode {
	case MeasureEWMA:
	case MeasureFold:
		if p.Measure.Fold == nil {
			return nil, fmt.Errorf("lang: fold mode without fold")
		}
		f := p.Measure.Fold
		b = binary.AppendUvarint(b, uint64(len(f.Regs)))
		for _, r := range f.Regs {
			var err error
			b, err = appendString(b, r.Name)
			if err != nil {
				return nil, err
			}
			b = appendF64(b, r.Init)
		}
		b = binary.AppendUvarint(b, uint64(len(f.Updates)))
		for _, u := range f.Updates {
			var err error
			b, err = appendString(b, u.Dst)
			if err != nil {
				return nil, err
			}
			b, err = appendExpr(b, u.E)
			if err != nil {
				return nil, err
			}
		}
	case MeasureVector:
		b = binary.AppendUvarint(b, uint64(len(p.Measure.Fields)))
		for _, f := range p.Measure.Fields {
			b = append(b, byte(f))
		}
	default:
		return nil, fmt.Errorf("lang: cannot marshal measure mode %d", p.Measure.Mode)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		var err error
		switch n := in.(type) {
		case SetRate:
			b = append(b, instrTagRate)
			b, err = appendExpr(b, n.E)
		case SetCwnd:
			b = append(b, instrTagCwnd)
			b, err = appendExpr(b, n.E)
		case Wait:
			b = append(b, instrTagWait)
			b, err = appendExpr(b, n.Seconds)
		case WaitRtts:
			b = append(b, instrTagWaitRtts)
			b, err = appendExpr(b, n.Rtts)
		case Report:
			b = append(b, instrTagReport)
		default:
			err = fmt.Errorf("lang: cannot marshal instruction %T", in)
		}
		if err != nil {
			return nil, err
		}
	}
	var flags byte
	if p.UrgentECN {
		flags |= 1
	}
	b = append(b, flags)
	return b, nil
}

// programSize returns the encoded size of p (an upper bound where
// MarshalProgram would fail anyway), so the encoder allocates once.
func programSize(p *Program) int {
	n := 3 + binary.MaxVarintLen32 + len(p.Instrs) + 1 // header, instr count, tags, flags
	if f := p.Measure.Fold; f != nil {
		n += 2 * binary.MaxVarintLen32
		for _, r := range f.Regs {
			n += 1 + len(r.Name) + 8
		}
		for _, u := range f.Updates {
			n += 1 + len(u.Dst) + exprSize(u.E)
		}
	}
	n += binary.MaxVarintLen32 + len(p.Measure.Fields)
	for _, in := range p.Instrs {
		n += exprSize(InstrExpr(in))
	}
	return n
}

func exprSize(e Expr) int {
	switch n := e.(type) {
	case Const:
		return 1 + 8
	case Var:
		return 2 + len(n)
	case *Bin:
		return 2 + exprSize(n.L) + exprSize(n.R)
	case *If:
		return 1 + exprSize(n.Cond) + exprSize(n.Then) + exprSize(n.Else)
	}
	return 0
}

// UnmarshalProgram decodes and validates a program: both halves are decoded,
// then both validated, so a malformed byte anywhere is reported before any
// semantic complaint.
func UnmarshalProgram(data []byte) (*Program, error) {
	r := reader{data: data}
	p := &Program{}
	if err := r.measure(&p.Measure); err != nil {
		return nil, err
	}
	if err := r.control(p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MeasurePrefixLen returns the length of the measure half at the start of
// data without building it: the decoder run with construction switched off,
// so it allocates nothing, applies the same limits (maxExprDepth, maxListLen,
// maxNameLen) and fails with the same error the decoder would. Because the
// encoding is self-delimiting the result depends only on data[:n] — two
// programs share a measure half exactly when one's data[:n] prefixes the
// other.
func MeasurePrefixLen(data []byte) (int, error) {
	r := reader{data: data, skip: true}
	_, n, err := r.decodeMeasure()
	return n, err
}

// MeasureInits is MeasurePrefixLen that also reports where the Inits are: the
// offset in data of each fold register's 8-byte Init field, in declaration
// order (none outside fold mode). It is the same walk, so the offsets are
// where UnmarshalMeasure reads its Inits from.
func MeasureInits(data []byte) (n int, inits []int, err error) {
	r := reader{data: data, skip: true, wantInits: true}
	_, n, err = r.decodeMeasure()
	return n, r.inits, err
}

// SameShape reports whether b is the measure half a with at most its Inits
// changed: equal length and equal bytes everywhere except the Init fields,
// inits being MeasureInits(a). If so b needs no decoding: it is a's spec
// with the Init values found in b at those offsets (CompiledFold.WithInits).
func SameShape(a string, b []byte, inits []int) bool {
	if len(a) != len(b) {
		return false
	}
	pos := 0
	for _, off := range inits {
		if a[pos:off] != string(b[pos:off]) {
			return false
		}
		pos = off + 8
	}
	return a[pos:] == string(b[pos:])
}

// initAt decodes the Init field at off (one of MeasureInits' offsets).
func initAt(data []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
}

// UnmarshalMeasure decodes and validates the measure half at the start of
// data and returns it with the number of bytes it occupies.
func UnmarshalMeasure(data []byte) (MeasureSpec, int, error) {
	r := reader{data: data}
	m, n, err := r.decodeMeasure()
	if err != nil {
		return MeasureSpec{}, 0, err
	}
	if _, err := m.validate(); err != nil {
		return MeasureSpec{}, 0, err
	}
	return m, n, nil
}

func (r *reader) decodeMeasure() (MeasureSpec, int, error) {
	var m MeasureSpec
	if err := r.measure(&m); err != nil {
		return MeasureSpec{}, 0, err
	}
	if r.err != nil {
		return MeasureSpec{}, 0, r.err
	}
	return m, r.pos, nil
}

// UnmarshalControl decodes the control half — what follows the measure half
// — and requires it to end the program. Variable names are not resolved
// here; ValidateControl checks them against the measure half's registers.
func UnmarshalControl(data []byte) (instrs []Instr, urgentECN bool, err error) {
	r := reader{data: data}
	var p Program
	if err := r.control(&p); err != nil {
		return nil, false, err
	}
	return p.Instrs, p.UrgentECN, nil
}

// measure decodes the header and the measure section into m. Header and
// mode errors return at once; anything else is left in r.err, which stays
// set through the control half so the first malformed byte wins.
func (r *reader) measure(m *MeasureSpec) error {
	if r.byte() != progMagic || r.byte() != progVersion {
		return fmt.Errorf("lang: bad program header")
	}
	m.Mode = MeasureMode(r.byte())
	switch m.Mode {
	case MeasureEWMA:
	case MeasureFold:
		var f *FoldSpec
		if !r.skip {
			f = &FoldSpec{}
		}
		nregs := r.listLen()
		if r.wantInits {
			// A register takes at least nine bytes (name length, Init), so
			// the remaining input bounds what a lying count can ask for.
			r.inits = make([]int, 0, min(nregs, (len(r.data)-r.pos)/9))
		}
		for i := 0; i < nregs && r.err == nil; i++ {
			name := r.string()
			if r.wantInits {
				r.inits = append(r.inits, r.pos)
			}
			init := r.f64()
			if f != nil {
				f.Regs = append(f.Regs, RegDef{Name: name, Init: init})
			}
		}
		nupd := r.listLen()
		for i := 0; i < nupd && r.err == nil; i++ {
			dst := r.string()
			e := r.expr(0)
			if f != nil {
				f.Updates = append(f.Updates, Assign{Dst: dst, E: e})
			}
		}
		m.Fold = f
	case MeasureVector:
		n := r.listLen()
		for i := 0; i < n && r.err == nil; i++ {
			f := Field(r.byte())
			if !r.skip {
				m.Fields = append(m.Fields, f)
			}
		}
	default:
		return fmt.Errorf("lang: bad measure mode %d", m.Mode)
	}
	return nil
}

// control decodes the instruction list and flags into p and checks that the
// program ends there.
func (r *reader) control(p *Program) error {
	ninstr := r.listLen()
	if ninstr > 0 {
		// Every instruction takes at least its tag byte, so the remaining
		// input bounds the allocation a lying count can ask for.
		p.Instrs = make([]Instr, 0, min(ninstr, len(r.data)-r.pos))
	}
	for i := 0; i < ninstr && r.err == nil; i++ {
		tag := r.byte()
		switch tag {
		case instrTagRate:
			p.Instrs = append(p.Instrs, SetRate{r.expr(0)})
		case instrTagCwnd:
			p.Instrs = append(p.Instrs, SetCwnd{r.expr(0)})
		case instrTagWait:
			p.Instrs = append(p.Instrs, Wait{r.expr(0)})
		case instrTagWaitRtts:
			p.Instrs = append(p.Instrs, WaitRtts{r.expr(0)})
		case instrTagReport:
			p.Instrs = append(p.Instrs, Report{})
		default:
			r.fail(fmt.Errorf("lang: bad instruction tag 0x%02x", tag))
		}
	}
	flags := r.byte()
	p.UrgentECN = flags&1 != 0
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("lang: %d trailing bytes in program", len(r.data)-r.pos)
	}
	return nil
}

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxNameLen {
		return nil, fmt.Errorf("lang: name too long (%d bytes)", len(s))
	}
	b = append(b, byte(len(s)))
	return append(b, s...), nil
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendExpr(b []byte, e Expr) ([]byte, error) {
	switch n := e.(type) {
	case Const:
		b = append(b, exprTagConst)
		return appendF64(b, float64(n)), nil
	case Var:
		b = append(b, exprTagVar)
		return appendString(b, string(n))
	case *Bin:
		b = append(b, exprTagBin, byte(n.Op))
		var err error
		if b, err = appendExpr(b, n.L); err != nil {
			return nil, err
		}
		return appendExpr(b, n.R)
	case *If:
		b = append(b, exprTagIf)
		var err error
		if b, err = appendExpr(b, n.Cond); err != nil {
			return nil, err
		}
		if b, err = appendExpr(b, n.Then); err != nil {
			return nil, err
		}
		return appendExpr(b, n.Else)
	case nil:
		return nil, fmt.Errorf("lang: cannot marshal nil expression")
	default:
		return nil, fmt.Errorf("lang: cannot marshal expression %T", e)
	}
}

type reader struct {
	data []byte
	pos  int
	err  error
	// skip walks the input without building anything (MeasurePrefixLen):
	// strings and expressions come back empty, everything else is the same
	// code on the same bytes.
	skip bool
	// wantInits records in inits where each register's Init field starts
	// (MeasureInits).
	wantInits bool
	inits     []int
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail(fmt.Errorf("lang: truncated program"))
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.fail(fmt.Errorf("lang: truncated float"))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v
}

func (r *reader) string() string {
	n := int(r.byte())
	if r.err != nil {
		return ""
	}
	if r.pos+n > len(r.data) {
		r.fail(fmt.Errorf("lang: truncated string"))
		return ""
	}
	s := ""
	if !r.skip {
		s = string(r.data[r.pos : r.pos+n])
	}
	r.pos += n
	return s
}

func (r *reader) listLen() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || v > maxListLen {
		r.fail(fmt.Errorf("lang: bad list length"))
		return 0
	}
	r.pos += n
	return int(v)
}

func (r *reader) expr(depth int) Expr {
	if r.err != nil {
		return Const(0)
	}
	if depth > maxExprDepth {
		r.fail(fmt.Errorf("lang: expression too deep"))
		return Const(0)
	}
	switch tag := r.byte(); tag {
	case exprTagConst:
		if v := r.f64(); !r.skip {
			return Const(v)
		}
		return nil
	case exprTagVar:
		if s := r.string(); !r.skip {
			return Var(s)
		}
		return nil
	case exprTagBin:
		op := BinKind(r.byte())
		if op >= NumBinKinds {
			r.fail(fmt.Errorf("lang: bad binary op %d", op))
			return Const(0)
		}
		l := r.expr(depth + 1)
		rr := r.expr(depth + 1)
		if r.skip {
			return nil
		}
		return &Bin{op, l, rr}
	case exprTagIf:
		c := r.expr(depth + 1)
		t := r.expr(depth + 1)
		e := r.expr(depth + 1)
		if r.skip {
			return nil
		}
		return &If{c, t, e}
	default:
		r.fail(fmt.Errorf("lang: bad expression tag 0x%02x", tag))
		return Const(0)
	}
}
