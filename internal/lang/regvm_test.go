package lang

import (
	"math"
	"strings"
	"testing"
)

// opCount tallies the opcodes of a compiled register program.
func opCount(c *RegCode, op RegOp) int {
	n := 0
	for _, in := range c.Insts {
		if in.Op == op {
			n++
		}
	}
	return n
}

func compileExprReg(t *testing.T, e Expr, regs []string) *RegCode {
	t.Helper()
	code, err := CompileReg(e, StdResolver(regs), VarTableSize(len(regs)))
	if err != nil {
		t.Fatalf("CompileReg(%s): %v", e, err)
	}
	return code
}

// evalBoth evaluates e on the register VM and the stack reference over the
// same table and requires bitwise agreement; it returns the shared value.
func evalBoth(t *testing.T, e Expr, regs []string, vars []float64) float64 {
	t.Helper()
	stack, err := Compile(e, StdResolver(regs))
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	reg := compileExprReg(t, e, regs)
	frame := make([]float64, reg.FrameLen)
	copy(frame, vars)
	sv := stack.Eval(vars, nil)
	rv := reg.Eval(frame)
	if math.Float64bits(sv) != math.Float64bits(rv) {
		t.Fatalf("register VM disagrees with the reference for %s: stack=%v (%#x) register=%v (%#x)",
			e, sv, math.Float64bits(sv), rv, math.Float64bits(rv))
	}
	return sv
}

func stdVars(nregs int) []float64 {
	vars := make([]float64, VarTableSize(nregs))
	vars[PktFieldSlot(FieldRTT)] = 0.05
	vars[PktFieldSlot(FieldAcked)] = 2896
	vars[PktFieldSlot(FieldLost)] = 1448
	vars[FlowVarSlot(FlowCwnd)] = 14480
	vars[FlowVarSlot(FlowMSS)] = 1448
	vars[FlowVarSlot(FlowSRTT)] = 0.06
	return vars
}

func TestRegConstantFolding(t *testing.T) {
	// An all-constant tree folds to a single rConst materialization.
	e := Add(Mul(C(2), C(3)), Div(C(10), C(4)))
	code := compileExprReg(t, e, nil)
	if len(code.Insts) != 1 || code.Insts[0].Op != rConst {
		t.Fatalf("constant tree compiled to %d insts (want 1 rConst): %v", len(code.Insts), code.Insts)
	}
	if got := code.Eval(make([]float64, code.FrameLen)); got != 8.5 {
		t.Fatalf("folded value = %v, want 8.5", got)
	}
	// Division by constant zero folds to 0 even with an unknown dividend.
	z := compileExprReg(t, Div(V("pkt.rtt"), C(0)), nil)
	if len(z.Insts) != 1 || z.Insts[0].Op != rConst {
		t.Fatalf("x/0 compiled to %v, want folded constant", z.Insts)
	}
	// Constant-true condition keeps only the taken branch.
	sel := compileExprReg(t, Ite(Lt(C(1), C(2)), V("cwnd"), Div(V("cwnd"), V("pkt.rtt"))), nil)
	if opCount(sel, rDiv) != 0 && opCount(sel, rDivC) != 0 {
		t.Fatalf("dead else-branch survived constant-condition fold: %v", sel.Insts)
	}
}

func TestRegSuperinstructionSelection(t *testing.T) {
	cases := []struct {
		name string
		e    Expr
		op   RegOp
	}{
		{"var plus const", Add(V("cwnd"), C(1448)), rAddC},
		{"const plus var commutes", Add(C(1448), V("cwnd")), rAddC},
		{"const minus var", Sub(C(10), V("pkt.rtt")), rSubCR},
		{"const div var", Div(C(1), V("pkt.rtt")), rDivCR},
		{"const less-than flips", Lt(C(2), V("delta")), rGtC},
		{"min accumulate", Min(V("base_rtt"), V("pkt.rtt")), rMin},
		{"ewma", Add(Mul(C(0.875), V("s_rtt")), Mul(C(0.125), V("pkt.rtt"))), rEwma},
		{"select of comparison", Ite(Lt(V("pkt.rtt"), V("base_rtt")), V("pkt.rtt"), V("base_rtt")), rSelLt},
	}
	regs := []string{"base_rtt", "delta", "s_rtt"}
	for _, tc := range cases {
		code := compileExprReg(t, tc.e, regs)
		if opCount(code, tc.op) == 0 {
			t.Errorf("%s: expected %v in %v", tc.name, tc.op, code.Insts)
		}
		// And the fused form must agree with the reference interpreter.
		vars := stdVars(len(regs))
		vars[RegSlot(0)] = 0.04
		vars[RegSlot(1)] = 3
		vars[RegSlot(2)] = 0.055
		evalBoth(t, tc.e, regs, vars)
	}
}

func TestRegAndOrStrengthReduction(t *testing.T) {
	// x and <truthy const> normalizes to b2f(x != 0): one rNeC, no rAnd.
	code := compileExprReg(t, And(V("pkt.ecn"), C(7)), nil)
	if opCount(code, rAnd) != 0 || opCount(code, rNeC) != 1 {
		t.Fatalf("And(x, 7) compiled to %v, want a single nec", code.Insts)
	}
	// x and 0 == 0, x or <truthy> == 1: both fold to constants.
	for _, e := range []Expr{And(V("pkt.ecn"), C(0)), Or(V("pkt.ecn"), C(3))} {
		c := compileExprReg(t, e, nil)
		if len(c.Insts) != 1 || c.Insts[0].Op != rConst {
			t.Fatalf("%s compiled to %v, want folded constant", e, c.Insts)
		}
	}
	for _, e := range []Expr{
		And(V("pkt.ecn"), C(7)), Or(V("pkt.ecn"), C(0)),
		And(C(0), V("pkt.ecn")), Or(C(2), V("pkt.ecn")),
	} {
		vars := stdVars(0)
		vars[PktFieldSlot(FieldECN)] = 1
		evalBoth(t, e, nil, vars)
		vars2 := stdVars(0)
		evalBoth(t, e, nil, vars2)
	}
}

func TestRegCSEAcrossFoldUpdates(t *testing.T) {
	// Both updates share the subexpression (pkt.rtt - base_rtt); CSE must
	// compute it once even though the two updates are separate assignments.
	f := &FoldSpec{
		Regs: []RegDef{{Name: "base_rtt", Init: 1e9}, {Name: "a"}, {Name: "b"}},
		Updates: []Assign{
			{Dst: "a", E: Mul(Sub(V("pkt.rtt"), V("base_rtt")), C(2))},
			{Dst: "b", E: Add(Sub(V("pkt.rtt"), V("base_rtt")), V("b"))},
		},
	}
	code, err := compileFoldReg(f)
	if err != nil {
		t.Fatal(err)
	}
	if n := opCount(code, rSub); n != 1 {
		t.Fatalf("shared (pkt.rtt - base_rtt) compiled %d times, want 1: %v", n, code.Insts)
	}

	// Writing a register must invalidate values computed over its old
	// contents: here the second update reuses (pkt.rtt - base_rtt) but
	// base_rtt was just reassigned, so the subtraction must be recomputed.
	g := &FoldSpec{
		Regs: []RegDef{{Name: "base_rtt", Init: 1e9}, {Name: "a"}},
		Updates: []Assign{
			{Dst: "base_rtt", E: Sub(V("pkt.rtt"), V("base_rtt"))},
			{Dst: "a", E: Sub(V("pkt.rtt"), V("base_rtt"))},
		},
	}
	gcode, err := compileFoldReg(g)
	if err != nil {
		t.Fatal(err)
	}
	subs := 0
	for _, in := range gcode.Insts {
		if in.Op == rSub || in.Op == rMov {
			subs++
		}
	}
	if opCount(gcode, rSub) != 2 {
		t.Fatalf("stale CSE hit across register write: %v", gcode.Insts)
	}
	// And the numbers must match the stack reference exactly.
	for _, spec := range []*FoldSpec{f, g} {
		assertFoldsAgree(t, spec, 100, 77)
	}
}

func TestRegAccumulateRetargeting(t *testing.T) {
	// `base_rtt = min(base_rtt, pkt.rtt)` must be exactly one instruction
	// writing the register in place — the three-address accumulate fusion.
	f := &FoldSpec{
		Regs:    []RegDef{{Name: "base_rtt", Init: 1e9}},
		Updates: []Assign{{Dst: "base_rtt", E: Min(V("base_rtt"), V("pkt.rtt"))}},
	}
	code, err := compileFoldReg(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(code.Insts) != 1 || code.Insts[0].Op != rMin || int(code.Insts[0].Dst) != RegSlot(0) {
		t.Fatalf("min-accumulate compiled to %v, want one rMin into the register slot", code.Insts)
	}
	if code.FrameLen != code.NVars+1 {
		// One temp is allocated then retargeted away; it must not grow
		// beyond that.
		t.Fatalf("FrameLen %d for NVars %d, want at most one temp", code.FrameLen, code.NVars)
	}
}

// assertFoldsAgree steps the same fold on the register VM and on the stack
// reference over a deterministic pseudo-random packet stream and requires
// bit-identical register values after every packet.
func assertFoldsAgree(t *testing.T, f *FoldSpec, packets int, seed uint64) {
	t.Helper()
	cfS, err := CompileStackFold(f)
	if err != nil {
		t.Fatalf("stack compile: %v", err)
	}
	cfR, err := CompileFold(f)
	if err != nil {
		t.Fatalf("register compile: %v", err)
	}
	nregs := len(f.Regs)
	vs := make([]float64, VarTableSize(nregs))
	vr := make([]float64, cfR.FrameLen())
	cfR.InitRegs(vs)
	cfR.InitRegs(vr)
	x := seed | 1
	next := func() float64 {
		// xorshift64: deterministic, seeds the packet fields with a mix of
		// ordinary values and specials.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x % 16 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return 0
		default:
			return float64(x%100000) / 64
		}
	}
	for p := 0; p < packets; p++ {
		for fi := 0; fi < int(NumPktFields); fi++ {
			v := next()
			vs[fi] = v
			vr[fi] = v
		}
		cfS.Step(vs)
		cfR.Step(vr)
		for i := 0; i < nregs; i++ {
			a, b := vs[RegSlot(i)], vr[RegSlot(i)]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("packet %d register %q: stack=%v (%#x) register=%v (%#x)\nfold: %v",
					p, f.Regs[i].Name, a, math.Float64bits(a), b, math.Float64bits(b), f.Updates)
			}
		}
	}
}

func TestRegVegasFoldAgrees(t *testing.T) {
	assertFoldsAgree(t, vegasFold(), 500, 12345)
}

func TestRegZeroRegisterFold(t *testing.T) {
	// A fold with registers but no updates, and the degenerate case the
	// datapath can build: measure-fold programs always have ≥1 register,
	// but the compiler must not choke on an empty update list.
	f := &FoldSpec{Regs: []RegDef{{Name: "r", Init: 7}}}
	cf, err := CompileFold(f)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, cf.FrameLen())
	cf.InitRegs(vars)
	cf.Step(vars)
	if vars[RegSlot(0)] != 7 {
		t.Fatalf("register changed without updates: %v", vars[RegSlot(0)])
	}
	assertFoldsAgree(t, f, 10, 3)
	// Truly zero registers: no state, Step is a no-op.
	assertFoldsAgree(t, &FoldSpec{}, 10, 3)
}

func TestRegSequentialUpdateReads(t *testing.T) {
	// The paper's Vegas idiom: a later update reads a register written
	// earlier in the same Step. The register compiler lowers the whole
	// body as one program and must preserve the sequential semantics.
	f := &FoldSpec{
		Regs: []RegDef{{Name: "base_rtt", Init: 1e9}, {Name: "in_q"}},
		Updates: []Assign{
			{Dst: "base_rtt", E: Min(V("base_rtt"), V("pkt.rtt"))},
			{Dst: "in_q", E: Div(Mul(Sub(V("pkt.rtt"), V("base_rtt")), V("cwnd")), Max(V("base_rtt"), C(1e-9)))},
		},
	}
	assertFoldsAgree(t, f, 300, 999)

	// Directed check: the second update must observe the minimum computed
	// by the first, not the pre-Step value.
	cf, err := CompileFold(f)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, cf.FrameLen())
	cf.InitRegs(vars)
	vars[PktFieldSlot(FieldRTT)] = 0.2
	vars[FlowVarSlot(FlowCwnd)] = 1000
	cf.Step(vars)
	if got := vars[RegSlot(0)]; got != 0.2 {
		t.Fatalf("base_rtt = %v, want 0.2", got)
	}
	// in_q = (0.2 - 0.2)*1000 / max(0.2, 1e-9) = 0
	if got := vars[RegSlot(1)]; got != 0 {
		t.Fatalf("in_q = %v, want 0 (must read the just-updated base_rtt)", got)
	}
}

func TestRegNaNInfPacketFields(t *testing.T) {
	// NaN/Inf in packet fields must be squashed as the reference squashes
	// them, including through the fused EWMA (whose intermediate products
	// squash separately).
	f := &FoldSpec{
		Regs: []RegDef{{Name: "s", Init: 0.1}, {Name: "m", Init: 0}},
		Updates: []Assign{
			{Dst: "s", E: Add(Mul(C(0.875), V("s")), Mul(C(0.125), V("pkt.rtt")))},
			{Dst: "m", E: Max(V("m"), Mul(V("pkt.snd_rate"), V("pkt.rtt")))},
		},
	}
	assertFoldsAgree(t, f, 400, 4242)

	// Directed: an Inf intermediate squashes to 0 before the EWMA sum.
	cf, err := CompileFold(f)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, cf.FrameLen())
	cf.InitRegs(vars)
	vars[PktFieldSlot(FieldRTT)] = math.Inf(1)
	cf.Step(vars)
	// coeff*init + sq(0.125*Inf): the Inf term squashes to 0 before the sum.
	coeff, init := 0.875, 0.1
	if got, want := vars[RegSlot(0)], coeff*init; got != want {
		t.Fatalf("EWMA over Inf field = %v, want %v", got, want)
	}
}

func TestRegSlotTableSizeMismatch(t *testing.T) {
	regs := []string{"r0", "r1"}
	e := Add(V("r1"), V("pkt.rtt"))
	stack, err := Compile(e, StdResolver(regs))
	if err != nil {
		t.Fatal(err)
	}
	reg := compileExprReg(t, e, regs)

	// A table missing the register slots: the register VM, like the
	// reference, reads missing variable slots as 0 instead of trapping.
	short := make([]float64, int(NumPktFields)) // no flow vars, no registers
	short[PktFieldSlot(FieldRTT)] = 0.25
	sv := stack.Eval(short, nil)
	rv := reg.Eval(short)
	if sv != 0.25 || rv != 0.25 {
		t.Fatalf("short-table eval: stack=%v register=%v, want 0.25", sv, rv)
	}

	// Undersized table through a fold Step: registers that fit are updated,
	// missing ones are dropped, and nothing panics.
	f := &FoldSpec{
		Regs:    []RegDef{{Name: "a"}},
		Updates: []Assign{{Dst: "a", E: V("pkt.rtt")}},
	}
	cf, err := CompileFold(f)
	if err != nil {
		t.Fatal(err)
	}
	tbl := make([]float64, VarTableSize(1)) // exact table, smaller than FrameLen
	tbl[PktFieldSlot(FieldRTT)] = 0.5
	cf.Step(tbl)
	if got := tbl[RegSlot(0)]; got != 0.5 {
		t.Fatalf("fallback Step register = %v, want 0.5", got)
	}

	// The staged path is the in-place path on a copy: over a stream with
	// specials, a minimum-size table ends every packet with the registers a
	// FrameLen-sized one has, bit for bit.
	wide, err := CompileFold(wideFold())
	if err != nil {
		t.Fatal(err)
	}
	if wide.FrameLen() <= VarTableSize(wide.NumRegs()) {
		t.Fatal("wideFold needs no temps; the staged path is not exercised")
	}
	short, full := make([]float64, VarTableSize(wide.NumRegs())), make([]float64, wide.FrameLen())
	wide.InitRegs(short)
	wide.InitRegs(full)
	specials := []float64{0.05, math.NaN(), math.Inf(1), 0, 1448, math.Inf(-1), 1.2e7, 5e-324}
	for p := 0; p < 64; p++ {
		for fi := 0; fi < int(NumPktFields); fi++ {
			v := specials[(p*7+fi*3)%len(specials)]
			short[fi], full[fi] = v, v
		}
		wide.Step(short)
		wide.Step(full)
		for i := 0; i < wide.NumRegs(); i++ {
			if a, b := short[RegSlot(i)], full[RegSlot(i)]; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("packet %d register %d: staged %v (%#x), in place %v (%#x)", p, i, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
}

func TestRegVerifyRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		code RegCode
		want string
	}{
		{
			"operand outside frame",
			RegCode{Insts: []RInst{{Op: rAdd, Dst: 16, A: 50, B: 0}}, NVars: 15, FrameLen: 17},
			"outside frame",
		},
		{
			"temp read before write",
			RegCode{Insts: []RInst{{Op: rMov, Dst: 16, A: 15}}, NVars: 15, FrameLen: 17},
			"read before write",
		},
		{
			"const index outside pool",
			RegCode{Insts: []RInst{{Op: rConst, Dst: 15, A: 3}}, Consts: []float64{1}, NVars: 15, FrameLen: 16},
			"outside pool",
		},
		{
			"write to variable slot",
			RegCode{Insts: []RInst{{Op: rConst, Dst: 2, A: 0}}, Consts: []float64{1}, NVars: 15, FrameLen: 16},
			"not in the destination set",
		},
		{
			"divc by zero const",
			RegCode{Insts: []RInst{{Op: rDivC, Dst: 15, A: 0, B: 0}}, Consts: []float64{0}, NVars: 15, FrameLen: 16},
			"constant zero",
		},
	}
	for _, tc := range cases {
		err := tc.code.verify(nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: verify = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestStackReferenceNeverTraps(t *testing.T) {
	// The reference checks every access at run time, so even a stream no
	// compiler would emit evaluates to a number.
	for name, bad := range map[string]*Code{
		"binary op over empty stack": {Insts: []Inst{{opBin, uint16(OpAdd)}}, MaxStack: 2},
		"select over two operands":   {Insts: []Inst{{opVar, 0}, {opVar, 1}, {opSelect, 0}}, MaxStack: 2},
		"empty stream":               {},
	} {
		if got := bad.Eval(nil, nil); got != 0 {
			t.Errorf("%s = %v, want defensive 0", name, got)
		}
	}
	over := &Code{Insts: []Inst{{opConst, 5}, {opVar, 9}, {opBin, uint16(OpAdd)}}, Consts: []float64{1}, MaxStack: 2}
	if got := over.Eval([]float64{3}, nil); got != 0 {
		t.Errorf("const index and slot out of range = %v, want 0 + 0", got)
	}
}

func TestRegCtrlExprMatchesStack(t *testing.T) {
	// The datapath compiles control expressions with CompileReg; spot-check
	// Table 2 shapes against the reference interpreter.
	exprs := []Expr{
		Mul(C(1.25), V("rate")),
		Add(V("cwnd"), V("mss")),
		Mul(C(0.5), V("cwnd")),
		Ite(Gt(V("pkt.lost"), C(0)), Mul(C(0.5), V("cwnd")), Add(V("cwnd"), V("mss"))),
		Div(Mul(V("cwnd"), C(8)), Max(V("srtt"), C(1e-6))),
	}
	for _, e := range exprs {
		vars := stdVars(0)
		vars[FlowVarSlot(FlowRate)] = 1e7
		evalBoth(t, e, nil, vars)
	}
}
