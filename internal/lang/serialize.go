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
// An algorithm answers every report with an Install, so the encoding's size
// is a per-report cost. It spends a byte where a byte will do: a built-in
// packet field or flow variable is its variable-table slot, a fold register
// inside the fold is its declaration index, an operator is one byte and a
// small whole constant two. DESIGN.md §12 has the layout as a table.
//
// The encoding has two halves. The measure half — header, mode, and the
// fold's registers (with their Init values) and updates, or the vector's
// fields, or (MeasureRef) the epoch of a measure half the flow already runs —
// is a self-delimiting prefix: every list carries its length and
// every expression its own shape, so where it ends is a function of its own
// bytes and never of what follows. The control half — instruction list and
// flags — is the rest. MeasurePrefixLen, UnmarshalMeasure and
// UnmarshalControl decode the halves separately; UnmarshalProgram is the two
// together. The control half names the registers it reads (only built-ins,
// constants and operators are short there), so it decodes on its own, before
// anything is known about the measure half it follows.
//
// Within the measure half the Init values are the only bytes that steer
// nothing: every count, name length, tag, index and operator lies outside
// them, and an Init is eight raw bytes whatever its value. So two measure
// halves that agree everywhere but there (SameShape) take the decoder down
// the identical path and decode to specs that differ in their Inits alone —
// what an algorithm produces when it carries state from one Install to the
// next through a register's Init (Vegas's base_rtt).
//
// The encoding is canonical: whatever has a short form is refused in its long
// one (a built-in or a declared register spelled by name, a small constant in
// eight bytes, a padded count), so the bytes UnmarshalProgram accepts are the
// bytes MarshalProgram gives back for what they decode to. The artifact table
// keys on measure-half bytes; one program is one key.

const (
	progMagic   = 0xCC
	progVersion = 2

	// An expression node starts with one tag byte, which for the three
	// commonest nodes is the whole node or carries its operand.
	exprTagBuiltin = 0x00 // 0x00..0x3F: built-in variable, tag = its builtinSlot
	exprTagBin     = 0x40 // 0x40..0x5F: binary operator, tag = 0x40|BinKind; L, R follow
	exprTagIf      = 0x60 // Cond, Then, Else follow
	exprTagSmall   = 0x61 // one byte follows: a whole constant 0..255
	exprTagConst   = 0x62 // eight bytes follow: any other constant
	exprTagNamed   = 0x63 // length byte and name follow: a variable with no shorter form
	exprTagReg     = 0x80 // 0x80..0xFE: fold register, tag = 0x80|declaration index
	exprTagRegLong = 0xFF // uvarint follows: a declaration index past regShortMax

	binKindMask = 0x1F
	regShortMax = exprTagRegLong - exprTagReg - 1 // 126, the last one-byte index

	instrTagRate     = 0x10
	instrTagCwnd     = 0x11
	instrTagWait     = 0x12
	instrTagWaitRtts = 0x13
	instrTagReport   = 0x14

	marshalScratch = 512

	maxNameLen   = 255
	maxExprDepth = 64
	maxListLen   = 4096
)

// The tag ranges hold what they are for: a negative array length does not
// compile.
var (
	_ [exprTagBin - numBuiltins]struct{}
	_ [binKindMask + 1 - int(NumBinKinds)]struct{}
)

// MarshalProgram encodes p into a buffer of exactly the encoding's size: the
// agent keeps the result per flow, twice, and snapshots copy it. The program
// should be Validate()d first; the encoding itself does not re-validate
// semantics, and a program Validate refuses still encodes (an undeclared name
// crosses by name), so the far end refuses it in Validate's words.
func MarshalProgram(p *Program) ([]byte, error) {
	data, _, err := MarshalHalves(p)
	return data, err
}

// MarshalHalves is MarshalProgram that also says where the measure half ends:
// data[:ctrlAt] is what MeasurePrefixLen(data) would walk to find, known here
// from having written it, and data[ctrlAt:] the control half AppendRef takes.
func MarshalHalves(p *Program) (data []byte, ctrlAt int, err error) {
	var regs regScope
	if f := p.Measure.Fold; f != nil {
		regs = scopeOf(f.Regs)
	}
	// Encoded once, on the stack, then copied out at its final size: a walk
	// to size the buffer first costs what the encoding does (every variable
	// is resolved to find its form). A program past marshalScratch bytes —
	// four times the largest bundled one — spills to the heap on the way.
	var scratch [marshalScratch]byte
	b := append(scratch[:0], progMagic, progVersion, byte(p.Measure.Mode))
	switch p.Measure.Mode {
	case MeasureEWMA:
	case MeasureFold:
		if p.Measure.Fold == nil {
			return nil, 0, fmt.Errorf("lang: fold mode without fold")
		}
		f := p.Measure.Fold
		b = binary.AppendUvarint(b, uint64(len(f.Regs)))
		for _, r := range f.Regs {
			var err error
			b, err = appendString(b, r.Name)
			if err != nil {
				return nil, 0, err
			}
			b = appendF64(b, r.Init)
		}
		b = binary.AppendUvarint(b, uint64(len(f.Updates)))
		for _, u := range f.Updates {
			var err error
			b, err = appendVar(b, u.Dst, &regs)
			if err != nil {
				return nil, 0, err
			}
			b, err = appendExpr(b, u.E, &regs)
			if err != nil {
				return nil, 0, err
			}
		}
	case MeasureVector:
		b = binary.AppendUvarint(b, uint64(len(p.Measure.Fields)))
		for _, f := range p.Measure.Fields {
			b = append(b, byte(f))
		}
	case MeasureRef:
		if p.Measure.Epoch == 0 {
			return nil, 0, fmt.Errorf("lang: reference to epoch 0")
		}
		b = binary.AppendUvarint(b, uint64(p.Measure.Epoch))
	default:
		return nil, 0, fmt.Errorf("lang: cannot marshal measure mode %d", p.Measure.Mode)
	}
	ctrlAt = len(b)
	b = binary.AppendUvarint(b, uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		var err error
		switch n := in.(type) {
		case SetRate:
			b = append(b, instrTagRate)
			b, err = appendExpr(b, n.E, nil)
		case SetCwnd:
			b = append(b, instrTagCwnd)
			b, err = appendExpr(b, n.E, nil)
		case Wait:
			b = append(b, instrTagWait)
			b, err = appendExpr(b, n.Seconds, nil)
		case WaitRtts:
			b = append(b, instrTagWaitRtts)
			b, err = appendExpr(b, n.Rtts, nil)
		case Report:
			b = append(b, instrTagReport)
		default:
			err = fmt.Errorf("lang: cannot marshal instruction %T", in)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	var flags byte
	if p.UrgentECN {
		flags |= 1
	}
	b = append(b, flags)
	data = make([]byte, len(b))
	copy(data, b)
	return data, ctrlAt, nil
}

// AppendRef appends to dst a program in its by-reference form: a measure half
// that only names epoch — the ctrl Seq of the Install that carried the measure
// half meant — and then ctrl, a control half as it stands in a whole program's
// encoding (MarshalHalves' data[ctrlAt:]). epoch must not be 0, which is no
// Install's.
func AppendRef(dst []byte, epoch uint32, ctrl []byte) []byte {
	dst = append(dst, progMagic, progVersion, byte(MeasureRef))
	dst = binary.AppendUvarint(dst, uint64(epoch))
	return append(dst, ctrl...)
}

// IsRef reports whether data starts as a program in by-reference form does.
func IsRef(data []byte) bool {
	return len(data) > 2 && data[0] == progMagic && data[1] == progVersion && data[2] == byte(MeasureRef)
}

// smallConst reports whether v has the two-byte form: a whole number 0..255
// (and not −0, whose sign the byte would lose).
func smallConst(v float64) (byte, bool) {
	if v >= 0 && v <= 255 { // false for NaN
		if u := uint8(v); math.Float64bits(float64(u)) == math.Float64bits(v) {
			return u, true
		}
	}
	return 0, false
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
// so it allocates nothing (for a program that installs: see declared), applies
// the same limits (maxExprDepth, maxListLen, maxNameLen), refuses the same
// spellings and fails with the same error the decoder would. Because the
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
	magic, version := r.byte(), r.byte()
	if r.err != nil || magic != progMagic {
		return fmt.Errorf("lang: bad program header")
	}
	if version != progVersion {
		// One build is agent, datapath and standby: there is no older peer to
		// talk to, so no older format is decoded.
		return fmt.Errorf("lang: program format version %d, want %d", version, progVersion)
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
		// A register takes at least nine bytes (name length, Init) and an
		// update two, so the remaining input bounds what a lying count can
		// ask for.
		fit := min(nregs, (len(r.data)-r.pos)/9)
		if r.wantInits {
			r.inits = make([]int, 0, fit)
		}
		if f != nil && fit > 0 {
			f.Regs = make([]RegDef, 0, fit)
			r.regVars = make([]Expr, 0, fit)
		}
		r.regsAt = r.pos
		for i := 0; i < nregs && r.err == nil; i++ {
			name := r.string()
			if r.wantInits {
				r.inits = append(r.inits, r.pos)
			}
			init := r.f64()
			if f != nil {
				f.Regs = append(f.Regs, RegDef{Name: name, Init: init})
				r.regVars = append(r.regVars, Var(name))
			}
		}
		r.nregs = nregs
		nupd := r.listLen()
		if fit := min(nupd, (len(r.data)-r.pos)/2); f != nil && fit > 0 {
			f.Updates = make([]Assign, 0, fit)
		}
		for i := 0; i < nupd && r.err == nil; i++ {
			dst := r.variable(r.byte())
			e := r.expr(0)
			if f != nil && r.err == nil {
				f.Updates = append(f.Updates, Assign{Dst: string(dst.(Var)), E: e})
			}
		}
		r.nregs, r.regNames = 0, nil // registers go by index inside the fold only
		m.Fold = f
	case MeasureVector:
		n := r.listLen()
		for i := 0; i < n && r.err == nil; i++ {
			f := Field(r.byte())
			if !r.skip {
				m.Fields = append(m.Fields, f)
			}
		}
	case MeasureRef:
		m.Epoch = uint32(r.uvarint("epoch", math.MaxUint32))
		if m.Epoch == 0 {
			r.fail(fmt.Errorf("lang: reference to epoch 0"))
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
	if flags > 1 {
		r.fail(fmt.Errorf("lang: bad program flags 0x%02x", flags))
	}
	p.UrgentECN = flags == 1
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

// appendVar encodes a variable reference in its one canonical form: inside a
// fold (regs not nil) a declared register is its index; a built-in is its
// slot; anything else — an undeclared name, or a register read by the control
// half — goes by name. Registers first, as every Resolver resolves.
func appendVar(b []byte, name string, regs *regScope) ([]byte, error) {
	if regs != nil {
		if i, ok := regs.reg(name); ok {
			if i <= regShortMax {
				return append(b, exprTagReg|byte(i)), nil
			}
			return binary.AppendUvarint(append(b, exprTagRegLong), uint64(i)), nil
		}
	}
	if slot, ok := builtinSlot(name); ok {
		return append(b, exprTagBuiltin|byte(slot)), nil
	}
	return appendString(append(b, exprTagNamed), name)
}

func appendExpr(b []byte, e Expr, regs *regScope) ([]byte, error) {
	switch n := e.(type) {
	case Const:
		if u, ok := smallConst(float64(n)); ok {
			return append(b, exprTagSmall, u), nil
		}
		return appendF64(append(b, exprTagConst), float64(n)), nil
	case Var:
		return appendVar(b, string(n), regs)
	case *Bin:
		if n == nil {
			break
		}
		if n.Op >= NumBinKinds {
			return nil, fmt.Errorf("lang: cannot marshal binary op %d", n.Op)
		}
		b = append(b, exprTagBin|byte(n.Op))
		var err error
		if b, err = appendExpr(b, n.L, regs); err != nil {
			return nil, err
		}
		return appendExpr(b, n.R, regs)
	case *If:
		if n == nil {
			break
		}
		b = append(b, exprTagIf)
		var err error
		if b, err = appendExpr(b, n.Cond, regs); err != nil {
			return nil, err
		}
		if b, err = appendExpr(b, n.Then, regs); err != nil {
			return nil, err
		}
		return appendExpr(b, n.Else, regs)
	case nil:
		return nil, fmt.Errorf("lang: cannot marshal nil expression")
	}
	return nil, fmt.Errorf("lang: cannot marshal nil %T", e)
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

	// While the fold's updates are being decoded: how many registers it
	// declared and where in data the declarations start, which is all an
	// index or a name needs checking against; regVars is each declared name
	// as an expression, made once and shared by every update that reads it
	// (not in skip mode). regNames indexes the declarations when there are
	// more than regScanMax of them and a name has to be looked up.
	nregs    int
	regsAt   int
	regVars  []Expr
	regNames map[string]struct{}
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

// name reads a length-prefixed name and returns it as the bytes of data.
func (r *reader) name() []byte {
	n := int(r.byte())
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.data) {
		r.fail(fmt.Errorf("lang: truncated string"))
		return nil
	}
	s := r.data[r.pos : r.pos+n]
	r.pos += n
	return s
}

func (r *reader) string() string {
	if s := r.name(); !r.skip {
		return string(s)
	}
	return ""
}

// uvarint reads a count, an index or an epoch of at most max, in the fewest
// bytes that hold it.
func (r *reader) uvarint(what string, max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || v > max {
		r.fail(fmt.Errorf("lang: bad %s", what))
		return 0
	}
	if n > 1 && r.data[r.pos+n-1] == 0 {
		r.fail(fmt.Errorf("lang: %s padded to %d bytes", what, n))
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) listLen() int { return int(r.uvarint("list length", maxListLen)) }

// declared reports whether name is one of the registers of the fold being
// decoded, by reading the declarations back from data. Only a variable that
// crossed by name asks, which in a program that installs happens nowhere in a
// fold: the scan allocates nothing unless the fold is both refused and large.
func (r *reader) declared(name []byte) bool {
	if r.regNames != nil {
		_, ok := r.regNames[string(name)]
		return ok
	}
	if r.nregs > regScanMax {
		r.regNames = make(map[string]struct{}, r.nregs)
	}
	found := false
	pos := r.regsAt
	for i := 0; i < r.nregs; i++ {
		n := int(r.data[pos])
		reg := r.data[pos+1 : pos+1+n]
		if string(reg) == string(name) {
			found = true
		}
		if r.regNames != nil {
			r.regNames[string(reg)] = struct{}{}
		}
		pos += 1 + n + 8
	}
	return found
}

// variable decodes the variable reference that starts with tag — an update's
// destination, or an expression whose tag is none of expr's own — refusing a
// spelling the encoder would not have chosen. What it returns is shared: one
// expression per built-in for the process, one per register for the fold.
func (r *reader) variable(tag byte) Expr {
	if r.err != nil {
		return Var("")
	}
	switch {
	case tag < exprTagBin:
		if int(tag) >= len(builtinVars) {
			r.fail(fmt.Errorf("lang: bad built-in variable slot %d", tag))
			return Var("")
		}
		return builtinVars[tag]
	case tag >= exprTagReg:
		i := int(tag - exprTagReg)
		if tag == exprTagRegLong {
			if i = int(r.uvarint("register index", maxListLen)); i <= regShortMax && r.err == nil {
				r.fail(fmt.Errorf("lang: register index %d in its long form", i))
			}
		}
		if i >= r.nregs {
			r.fail(fmt.Errorf("lang: register index %d out of range (%d in scope)", i, r.nregs))
		}
		if r.err != nil || r.skip {
			return Var("")
		}
		return r.regVars[i]
	case tag == exprTagNamed:
		name := r.name()
		if r.err != nil {
			return Var("")
		}
		if _, ok := builtinSlot(string(name)); ok {
			r.fail(fmt.Errorf("lang: built-in variable %q spelled by name", name))
		} else if r.declared(name) {
			r.fail(fmt.Errorf("lang: register %q spelled by name inside its fold", name))
		}
		if r.err != nil || r.skip {
			return Var("")
		}
		return Var(name)
	}
	r.fail(fmt.Errorf("lang: bad expression tag 0x%02x", tag))
	return Var("")
}

func (r *reader) expr(depth int) Expr {
	if r.err != nil {
		return Const(0)
	}
	if depth > maxExprDepth {
		r.fail(fmt.Errorf("lang: expression too deep"))
		return Const(0)
	}
	tag := r.byte()
	switch {
	case tag == exprTagSmall:
		if v := r.byte(); !r.skip {
			return smallConsts[v]
		}
		return nil
	case tag == exprTagConst:
		v := r.f64()
		if _, ok := smallConst(v); ok && r.err == nil {
			r.fail(fmt.Errorf("lang: constant %g in its long form", v))
		}
		if !r.skip {
			return Const(v)
		}
		return nil
	case tag&^binKindMask == exprTagBin:
		op := BinKind(tag & binKindMask)
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
	case tag == exprTagIf:
		c := r.expr(depth + 1)
		t := r.expr(depth + 1)
		e := r.expr(depth + 1)
		if r.skip {
			return nil
		}
		return &If{c, t, e}
	default:
		return r.variable(tag)
	}
}
