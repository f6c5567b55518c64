package lang

import (
	"fmt"
	"math"
)

// Lowering from the expression AST to register code, with the optimization
// pipeline the per-ACK hot path pays for:
//
//   - constant folding (through applyBin, so a folded subtree has the value
//     the operator's definition gives it),
//   - common-subexpression elimination by value numbering, valid across a
//     fold's update list (updates share packet fields and just-updated
//     registers; a register write invalidates exactly the values that
//     depended on it),
//   - superinstruction selection: var⊕const inline forms, the fused EWMA
//     shape a*x + b*y, and select-of-comparison, plus destination
//     retargeting so accumulator updates like `minrtt = min(minrtt, rtt)`
//     are a single instruction.
//
// Every emitted program passes verify before it is returned, which is what
// lets Run skip semantic checks entirely.

// operand is a value during compilation: either a known constant or a
// frame slot (variable or temp) holding it at runtime.
type operand struct {
	isConst bool
	cval    float64
	reg     uint16
}

func cOp(v float64) operand { return operand{isConst: true, cval: v} }
func rOp(s uint16) operand  { return operand{reg: s} }

// valueKey is a value number: the operation and the operands that determine
// a computed value, comparable so it keys the memo directly.
type valueKey struct {
	form       valueForm
	op         BinKind // formBin, formSel
	a, b, c, d operandKey
}

type valueForm uint8

const (
	formBin   valueForm = iota + 1 // op(a, b)
	formEwma                       // consts[c]*a + consts[d]*b, the pool indices in c.slot and d.slot
	formSel                        // (a op b) ? c : d
	formIf                         // a ? b : c
	formConst                      // the constant a, materialized into a slot
)

// operandKey identifies an operand's value: a constant by its bits, a
// variable slot by slot and write version — so a later write to the slot
// retires every key built over the old value — and a temp by its slot alone
// (temps are written once).
type operandKey struct {
	isConst bool
	slot    uint16
	ver     uint32
	bits    uint64
}

// regCompiler lowers compilation units — a whole fold body, or the
// expressions of a control half one after another — sharing one instruction
// array and one constant array. A unit has its own const pool (the constants
// from constBase on), temp allocator and value-numbering table.
type regCompiler struct {
	resolve Resolver
	nvars   int
	insts   []RInst
	consts  []float64
	// instBase and constBase are where the current unit starts in insts and
	// consts; const indices are relative to constBase.
	instBase, constBase int
	ntemps              int
	// memo maps value numbers to the operand holding that value. It is made
	// on first insert: a unit that folds to a constant never has one.
	memo map[valueKey]operand
	// varVer counts writes per variable slot (for memo keys); memo values
	// that point AT a rewritten slot are purged eagerly on write. Only fold
	// bodies write variable slots, so it too is made on first use.
	varVer map[uint16]uint32
}

func (rc *regCompiler) newTemp() (uint16, error) {
	slot := rc.nvars + rc.ntemps
	if slot > 0xFFFF {
		return 0, fmt.Errorf("lang: expression needs more than %d register slots", 0xFFFF)
	}
	rc.ntemps++
	return uint16(slot), nil
}

func (rc *regCompiler) constIndex(v float64) (uint16, error) {
	pool := rc.consts[rc.constBase:]
	for i, existing := range pool {
		if math.Float64bits(existing) == math.Float64bits(v) {
			return uint16(i), nil
		}
	}
	if len(pool) > 0xFFFF {
		return 0, fmt.Errorf("lang: constant pool exceeds %d entries", 0xFFFF)
	}
	rc.consts = append(rc.consts, v)
	return uint16(len(pool)), nil
}

// keyOf is o as a value-number key component.
func (rc *regCompiler) keyOf(o operand) operandKey {
	if o.isConst {
		return operandKey{isConst: true, bits: math.Float64bits(o.cval)}
	}
	if int(o.reg) < rc.nvars {
		return operandKey{slot: o.reg, ver: rc.varVer[o.reg]}
	}
	return operandKey{slot: o.reg}
}

// emit appends an instruction into a fresh temp and returns its operand.
func (rc *regCompiler) emit(in RInst) (operand, error) {
	t, err := rc.newTemp()
	if err != nil {
		return operand{}, err
	}
	in.Dst = t
	rc.insts = append(rc.insts, in)
	return rOp(t), nil
}

// emitMemo emits an instruction and records its value under key.
func (rc *regCompiler) emitMemo(key valueKey, in RInst) (operand, error) {
	o, err := rc.emit(in)
	if err != nil {
		return operand{}, err
	}
	if rc.memo == nil {
		rc.memo = make(map[valueKey]operand)
	}
	rc.memo[key] = o
	return o, nil
}

// materialize returns a frame slot holding o, emitting an rConst for a
// constant needed in a register position. The slot is memoized for the rest
// of the unit unless this is the unit's result, which nothing reads again.
func (rc *regCompiler) materialize(o operand, result bool) (uint16, error) {
	if !o.isConst {
		return o.reg, nil
	}
	key := valueKey{form: formConst, a: rc.keyOf(o)}
	if hit, ok := rc.memo[key]; ok {
		return hit.reg, nil
	}
	idx, err := rc.constIndex(o.cval)
	if err != nil {
		return 0, err
	}
	in := RInst{Op: rConst, A: idx}
	var reg operand
	if result {
		reg, err = rc.emit(in)
	} else {
		reg, err = rc.emitMemo(key, in)
	}
	return reg.reg, err
}

// noteVarWrite records a write to variable slot s: bump the version (keys
// over the old value stop matching) and purge memo values that point at
// the slot itself (their home is about to change contents).
func (rc *regCompiler) noteVarWrite(s uint16) {
	if rc.varVer == nil {
		rc.varVer = make(map[uint16]uint32)
	}
	rc.varVer[s]++
	for k, o := range rc.memo {
		if !o.isConst && o.reg == s {
			delete(rc.memo, k)
		}
	}
}

// compileExpr lowers e to an operand, folding constants and reusing
// already-computed values.
func (rc *regCompiler) compileExpr(e Expr) (operand, error) {
	switch n := e.(type) {
	case Const:
		return cOp(float64(n)), nil
	case Var:
		slot, ok := rc.resolve(string(n))
		if !ok {
			return operand{}, fmt.Errorf("lang: unknown variable %q", string(n))
		}
		if slot < 0 || slot >= rc.nvars {
			return operand{}, fmt.Errorf("lang: variable slot %d outside table of %d", slot, rc.nvars)
		}
		return rOp(uint16(slot)), nil
	case *Bin:
		return rc.compileBin(n)
	case *If:
		return rc.compileIf(n)
	default:
		return operand{}, fmt.Errorf("lang: cannot compile %T", e)
	}
}

// ewmaParts destructures Mul(c, x) / Mul(x, c) into (c, x). Multiplication
// is bitwise commutative here because every NaN result is squashed, so the
// fused form may fix the constant-first order.
func ewmaParts(e Expr) (coeff float64, x Expr, ok bool) {
	b, isBin := e.(*Bin)
	if !isBin || b.Op != OpMul {
		return 0, nil, false
	}
	if c, isC := b.L.(Const); isC {
		return float64(c), b.R, true
	}
	if c, isC := b.R.(Const); isC {
		return float64(c), b.L, true
	}
	return 0, nil, false
}

var rrOps = [NumBinKinds]RegOp{
	OpAdd: rAdd, OpSub: rSub, OpMul: rMul, OpDiv: rDiv,
	OpMin: rMin, OpMax: rMax,
	OpLt: rLt, OpLe: rLe, OpGt: rGt, OpGe: rGe, OpEq: rEq, OpNe: rNe,
	OpAnd: rAnd, OpOr: rOr,
}

// rcOps maps BinKinds to their register⊕const superinstruction (And/Or are
// strength-reduced before reaching operand selection).
var rcOps = [NumBinKinds]RegOp{
	OpAdd: rAddC, OpSub: rSubC, OpMul: rMulC, OpDiv: rDivC,
	OpMin: rMinC, OpMax: rMaxC,
	OpLt: rLtC, OpLe: rLeC, OpGt: rGtC, OpGe: rGeC, OpEq: rEqC, OpNe: rNeC,
}

// flipCmp mirrors a comparison so the constant moves to the right-hand
// side: c < x  ≡  x > c, and so on.
var flipCmp = map[BinKind]BinKind{
	OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe, OpEq: OpEq, OpNe: OpNe,
}

func isCmp(k BinKind) bool { return k >= OpLt && k <= OpNe }

func (rc *regCompiler) compileBin(n *Bin) (operand, error) {
	if n.Op >= NumBinKinds {
		return operand{}, fmt.Errorf("lang: invalid binary op %d", n.Op)
	}
	// Fused EWMA: Add(Mul(a, x), Mul(b, y)) with constant coefficients.
	if n.Op == OpAdd {
		if ca, xe, okL := ewmaParts(n.L); okL {
			if cb, ye, okR := ewmaParts(n.R); okR {
				return rc.compileEwma(ca, xe, cb, ye)
			}
		}
	}
	l, err := rc.compileExpr(n.L)
	if err != nil {
		return operand{}, err
	}
	r, err := rc.compileExpr(n.R)
	if err != nil {
		return operand{}, err
	}
	return rc.binOperand(n.Op, l, r)
}

// binOperand selects the cheapest instruction for op over two compiled
// operands: full constant fold, algebraic strength reduction, inline-const
// superinstruction, or the generic register-register form.
func (rc *regCompiler) binOperand(op BinKind, l, r operand) (operand, error) {
	if l.isConst && r.isConst {
		return cOp(applyBin(op, l.cval, r.cval, nil)), nil
	}
	// And/Or with one constant side reduce to a constant or a boolean
	// normalization of the other side (b2f(x != 0) == rNeC x, 0).
	if op == OpAnd || op == OpOr {
		if co, ro := constSide(l, r); co != nil {
			truthy := *co != 0
			if op == OpAnd && !truthy { // x and 0 == 0
				return cOp(0), nil
			}
			if op == OpOr && truthy { // x or 1 == 1
				return cOp(1), nil
			}
			// x and truthy == x or falsy == b2f(x != 0).
			return rc.binOperand(OpNe, ro, cOp(0))
		}
	}
	// x / 0 is 0 by definition; fold it even when x is unknown.
	if op == OpDiv && r.isConst && r.cval == 0 {
		return cOp(0), nil
	}
	// Canonicalize a constant onto the right: commutative ops swap,
	// comparisons flip; Sub/Div keep dedicated const-left forms.
	if l.isConst {
		switch {
		case op == OpAdd || op == OpMul || op == OpMin || op == OpMax || op == OpEq || op == OpNe:
			l, r = r, l
		case isCmp(op):
			op = flipCmp[op]
			l, r = r, l
		}
	}
	// The operands are in their final order: one value number, whichever
	// instruction form computes it.
	key := valueKey{form: formBin, op: op, a: rc.keyOf(l), b: rc.keyOf(r)}
	if hit, ok := rc.memo[key]; ok {
		return hit, nil
	}
	if r.isConst && !l.isConst && rcOps[op] != rNop {
		idx, err := rc.constIndex(r.cval)
		if err != nil {
			return operand{}, err
		}
		return rc.emitMemo(key, RInst{Op: rcOps[op], A: l.reg, B: idx})
	}
	if l.isConst {
		// Only Sub and Div reach here with a constant left operand.
		idx, err := rc.constIndex(l.cval)
		if err != nil {
			return operand{}, err
		}
		rop := rSubCR
		if op == OpDiv {
			rop = rDivCR
		}
		return rc.emitMemo(key, RInst{Op: rop, A: r.reg, B: idx})
	}
	return rc.emitMemo(key, RInst{Op: rrOps[op], A: l.reg, B: r.reg})
}

// constSide returns (constant, other) when exactly one operand is known.
func constSide(l, r operand) (*float64, operand) {
	if l.isConst && !r.isConst {
		return &l.cval, r
	}
	if r.isConst && !l.isConst {
		return &r.cval, l
	}
	return nil, operand{}
}

func (rc *regCompiler) compileEwma(ca float64, xe Expr, cb float64, ye Expr) (operand, error) {
	x, err := rc.compileExpr(xe)
	if err != nil {
		return operand{}, err
	}
	y, err := rc.compileExpr(ye)
	if err != nil {
		return operand{}, err
	}
	if x.isConst || y.isConst {
		// A constant factor makes half (or all) of the sum foldable; the
		// generic path handles it with full constant propagation.
		mx, err := rc.binOperand(OpMul, cOp(ca), x)
		if err != nil {
			return operand{}, err
		}
		my, err := rc.binOperand(OpMul, cOp(cb), y)
		if err != nil {
			return operand{}, err
		}
		return rc.binOperand(OpAdd, mx, my)
	}
	ia, err := rc.constIndex(ca)
	if err != nil {
		return operand{}, err
	}
	ib, err := rc.constIndex(cb)
	if err != nil {
		return operand{}, err
	}
	key := valueKey{form: formEwma, a: rc.keyOf(x), b: rc.keyOf(y), c: operandKey{slot: ia}, d: operandKey{slot: ib}}
	if hit, ok := rc.memo[key]; ok {
		return hit, nil
	}
	return rc.emitMemo(key, RInst{Op: rEwma, A: x.reg, B: ia, C: y.reg, D: ib})
}

var selCmpOps = map[BinKind]RegOp{
	OpLt: rSelLt, OpLe: rSelLe, OpGt: rSelGt, OpGe: rSelGe, OpEq: rSelEq, OpNe: rSelNe,
}

func (rc *regCompiler) compileIf(n *If) (operand, error) {
	// Fused select-of-comparison: If((l cmp r), then, else) in one dispatch.
	if cb, ok := n.Cond.(*Bin); ok && isCmp(cb.Op) {
		l, err := rc.compileExpr(cb.L)
		if err != nil {
			return operand{}, err
		}
		r, err := rc.compileExpr(cb.R)
		if err != nil {
			return operand{}, err
		}
		if l.isConst && r.isConst {
			return rc.compileBranch(applyBin(cb.Op, l.cval, r.cval, nil) != 0, n)
		}
		th, err := rc.compileExpr(n.Then)
		if err != nil {
			return operand{}, err
		}
		el, err := rc.compileExpr(n.Else)
		if err != nil {
			return operand{}, err
		}
		op := cb.Op
		if l.isConst {
			op = flipCmp[op]
			l, r = r, l
		}
		la, err := rc.materialize(l, false)
		if err != nil {
			return operand{}, err
		}
		rb, err := rc.materialize(r, false)
		if err != nil {
			return operand{}, err
		}
		tc, err := rc.materialize(th, false)
		if err != nil {
			return operand{}, err
		}
		ed, err := rc.materialize(el, false)
		if err != nil {
			return operand{}, err
		}
		key := valueKey{form: formSel, op: op, a: rc.keyOf(rOp(la)), b: rc.keyOf(rOp(rb)), c: rc.keyOf(rOp(tc)), d: rc.keyOf(rOp(ed))}
		if hit, ok := rc.memo[key]; ok {
			return hit, nil
		}
		return rc.emitMemo(key, RInst{Op: selCmpOps[op], A: la, B: rb, C: tc, D: ed})
	}
	cond, err := rc.compileExpr(n.Cond)
	if err != nil {
		return operand{}, err
	}
	if cond.isConst {
		return rc.compileBranch(cond.cval != 0, n)
	}
	th, err := rc.compileExpr(n.Then)
	if err != nil {
		return operand{}, err
	}
	el, err := rc.compileExpr(n.Else)
	if err != nil {
		return operand{}, err
	}
	tb, err := rc.materialize(th, false)
	if err != nil {
		return operand{}, err
	}
	eb, err := rc.materialize(el, false)
	if err != nil {
		return operand{}, err
	}
	key := valueKey{form: formIf, a: rc.keyOf(cond), b: rc.keyOf(rOp(tb)), c: rc.keyOf(rOp(eb))}
	if hit, ok := rc.memo[key]; ok {
		return hit, nil
	}
	return rc.emitMemo(key, RInst{Op: rSel, A: cond.reg, B: tb, C: eb})
}

// compileBranch resolves an If whose condition folded to a constant. Both
// branches are pure (the reference evaluates both and discards one), so
// compiling only the taken branch is value-identical.
func (rc *regCompiler) compileBranch(takeThen bool, n *If) (operand, error) {
	if takeThen {
		return rc.compileExpr(n.Then)
	}
	return rc.compileExpr(n.Else)
}

// compileAssign lowers `dst = e`, steering the final instruction's
// destination straight into the register slot when possible (this is what
// turns `minrtt = min(minrtt, rtt)` into a single accumulate instruction).
func (rc *regCompiler) compileAssign(dst uint16, e Expr) error {
	o, err := rc.compileExpr(e)
	if err != nil {
		return err
	}
	// Retire every cached value the old register contents backed.
	rc.noteVarWrite(dst)
	switch {
	case o.isConst:
		idx, err := rc.constIndex(o.cval)
		if err != nil {
			return err
		}
		rc.insts = append(rc.insts, RInst{Op: rConst, Dst: dst, A: idx})
	case o.reg == dst:
		// dst = dst: the value is already home; the write is a no-op.
	case int(o.reg) >= rc.nvars && len(rc.insts) > 0 && rc.insts[len(rc.insts)-1].Dst == o.reg:
		// The value was just computed into a fresh temp nothing else has
		// read yet: retarget the producing instruction to write the
		// register directly, and remap memo entries so CSE keeps working
		// against the value's new home.
		rc.insts[len(rc.insts)-1].Dst = dst
		for k, m := range rc.memo {
			if !m.isConst && m.reg == o.reg {
				rc.memo[k] = rOp(dst)
			}
		}
	default:
		rc.insts = append(rc.insts, RInst{Op: rMov, Dst: dst, A: o.reg})
	}
	return nil
}

// finish packages the unit compiled since the last finish into code, runs
// the compile-time verifier on it and starts the next unit.
func (rc *regCompiler) finish(code *RegCode, result uint16, allowedVarDsts map[uint16]bool) error {
	*code = RegCode{
		NVars:    rc.nvars,
		FrameLen: rc.nvars + rc.ntemps,
		Result:   result,
	}
	// Capacity ends with the unit, so the next unit's appends leave it alone;
	// a unit that emitted nothing has nil slices, as a RegCode of its own would.
	if n := len(rc.insts); n > rc.instBase {
		code.Insts = rc.insts[rc.instBase:n:n]
	}
	if n := len(rc.consts); n > rc.constBase {
		code.Consts = rc.consts[rc.constBase:n:n]
	}
	rc.instBase, rc.constBase, rc.ntemps = len(rc.insts), len(rc.consts), 0
	clear(rc.memo)
	return code.verify(allowedVarDsts)
}

// compileUnit lowers one expression, as a unit of its own, into code.
func (rc *regCompiler) compileUnit(e Expr, code *RegCode) error {
	o, err := rc.compileExpr(e)
	if err != nil {
		return err
	}
	res, err := rc.materialize(o, true)
	if err != nil {
		return err
	}
	return rc.finish(code, res, nil)
}

// CompileReg lowers a single expression to optimized register code against
// the standard variable-table layout (nvars slots resolved by resolve,
// which must be a StdResolver-compatible mapping).
func CompileReg(e Expr, resolve Resolver, nvars int) (*RegCode, error) {
	rc := regCompiler{resolve: resolve, nvars: nvars}
	code := new(RegCode)
	if err := rc.compileUnit(e, code); err != nil {
		return nil, err
	}
	return code, nil
}

// CompileControl lowers a control half in one pass: the code CompileReg gives
// each instruction's expression, in one array (the zero RegCode for Report,
// which evaluates nothing), with every instruction stream in one backing
// array and every constant pool in another. The arrays are sized for what
// the paper's per-report programs are made of — an expression that is one
// constant is one instruction over one constant — and grow for anything
// larger.
func CompileControl(instrs []Instr, resolve Resolver, nvars int) ([]RegCode, error) {
	nexpr := 0
	for _, in := range instrs {
		if InstrExpr(in) != nil {
			nexpr++
		}
	}
	rc := regCompiler{
		resolve: resolve,
		nvars:   nvars,
		insts:   make([]RInst, 0, nexpr),
		consts:  make([]float64, 0, nexpr),
	}
	codes := make([]RegCode, len(instrs))
	for i, in := range instrs {
		if e := InstrExpr(in); e != nil {
			if err := rc.compileUnit(e, &codes[i]); err != nil {
				return nil, err
			}
		}
	}
	return codes, nil
}

// compileFoldReg lowers a whole fold body — every update, in order — into
// one register program, so per-ACK execution is a single instruction-stream
// walk and CSE spans the update list.
func compileFoldReg(f *FoldSpec) (*RegCode, error) {
	resolve := StdResolver(f.regNames())
	nvars := VarTableSize(len(f.Regs))
	rc := regCompiler{resolve: resolve, nvars: nvars}
	allowed := make(map[uint16]bool, len(f.Regs))
	for i := range f.Regs {
		allowed[uint16(RegSlot(i))] = true
	}
	for _, a := range f.Updates {
		slot, ok := resolve(a.Dst)
		if !ok {
			return nil, fmt.Errorf("lang: assignment to unknown register %q", a.Dst)
		}
		if err := rc.compileAssign(uint16(slot), a.E); err != nil {
			return nil, err
		}
	}
	// A fold body's effects are its register writes; Result is unused, and
	// slot 0 always exists (the table starts with the packet fields).
	code := new(RegCode)
	if err := rc.finish(code, 0, allowed); err != nil {
		return nil, err
	}
	return code, nil
}
