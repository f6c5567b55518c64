package lang

import (
	"fmt"
	"math"
)

// The register VM is the datapath's fast fold/expression backend: flat
// three-address code over a compile-time-verified register file, so the
// per-ACK loop carries no semantic range checks, no operand stack, and no
// silent return-0 underflow paths — every instruction was proven in range
// and every temp proven written-before-read when the program was compiled
// (see verify). It is the only engine the datapath compiles for; the stack
// bytecode in compile.go is the reference the differential fuzz target
// (FuzzStackVsRegister) holds it bit-identical to.
//
// Frame layout: slots [0, NVars) are the standard variable table (packet
// fields, flow variables, fold registers — the layout fields.go defines), and
// slots [NVars, FrameLen) are temporaries owned by the VM. Constants live in
// a per-program pool and are referenced by inline index, never materialized
// unless an operand position requires a register (select branches).

// RegOp is a register-VM operation. The opcode space is deliberately wide:
// superinstructions fuse the dominant fold shapes (var⊕const, EWMA,
// select-of-comparison) into single dispatches, and three-address form
// makes min/max-accumulate (`dst = min(dst, x)`) one instruction.
type RegOp uint8

const (
	rNop   RegOp = iota
	rConst       // f[Dst] = consts[A]
	rMov         // f[Dst] = f[A]

	// Generic binary ops, both operands registers (var⊕var→dst). The
	// accumulate forms (min/max/sum into the destination) are these same
	// opcodes with Dst == A — three-address code makes the fusion free.
	rAdd // f[Dst] = sq(f[A] + f[B])
	rSub
	rMul
	rDiv // x/0 == 0, as everywhere in the language
	rMin
	rMax
	rLt // comparisons store exactly 0 or 1
	rLe
	rGt
	rGe
	rEq
	rNe
	rAnd
	rOr

	// Superinstructions: register ⊕ inline constant (const pool index in
	// B). Const-on-the-left forms are canonicalized away at compile time
	// (commutative ops swap, comparisons flip); only Sub and Div are truly
	// directional and keep a CR variant.
	rAddC // f[Dst] = sq(f[A] + consts[B])
	rSubC
	rMulC
	rDivC // compile guarantees consts[B] != 0 (x/0 folds to 0)
	rMinC
	rMaxC
	rLtC
	rLeC
	rGtC
	rGeC
	rEqC
	rNeC
	rSubCR // f[Dst] = sq(consts[B] - f[A])
	rDivCR // f[Dst] = consts[B] / f[A], 0 when f[A] == 0

	// Fused EWMA: f[Dst] = sq(sq(consts[B]*f[A]) + sq(consts[D]*f[C])).
	// The shape a*x + (1-a)*y dominates smoothed-estimate folds; the
	// intermediate squashes replicate applyBin's per-op NaN/Inf
	// normalization exactly, keeping the fusion bit-identical.
	rEwma

	// Select: f[Dst] = f[A] != 0 ? f[B] : f[C].
	rSel
	// Fused select-of-comparison: f[Dst] = (f[A] cmp f[B]) ? f[C] : f[D].
	rSelLt
	rSelLe
	rSelGt
	rSelGe
	rSelEq
	rSelNe

	numRegOps
)

var regOpNames = [numRegOps]string{
	"nop", "const", "mov",
	"add", "sub", "mul", "div", "min", "max",
	"lt", "le", "gt", "ge", "eq", "ne", "and", "or",
	"addc", "subc", "mulc", "divc", "minc", "maxc",
	"ltc", "lec", "gtc", "gec", "eqc", "nec", "subcr", "divcr",
	"ewma",
	"sel", "sellt", "selle", "selgt", "selge", "seleq", "selne",
}

func (op RegOp) String() string {
	if op < numRegOps {
		return regOpNames[op]
	}
	return fmt.Sprintf("rop(%d)", uint8(op))
}

// RInst is one three-address instruction. A and B are the primary
// operands; C and D carry the extra operands of the fused forms (EWMA
// second term, select branches).
type RInst struct {
	Op              RegOp
	Dst, A, B, C, D uint16
}

// RegCode is a compiled register program: for a single expression the
// value lands in Result; for a fold body the instructions write the fold's
// register slots directly and Result is unused. Nothing writes to a RegCode
// after it is compiled: Eval and Run mutate only the frame they are given, so
// one RegCode serves any number of goroutines.
type RegCode struct {
	Insts  []RInst
	Consts []float64
	// NVars is the caller-owned frame prefix (VarTableSize of the program's
	// register count); FrameLen is NVars plus the temp slots this program
	// needs.
	NVars    int
	FrameLen int
	// Result is the frame slot holding an expression's value after Run.
	Result uint16
}

// sq normalizes NaN/±Inf to 0, mirroring applyBin's totalization. v != v
// catches NaN without a call; the comparisons catch both infinities.
func sq(v float64) float64 {
	if v != v || v > math.MaxFloat64 || v < -math.MaxFloat64 {
		return 0
	}
	return v
}

// Run executes the program against f, which must have at least FrameLen
// slots (Eval handles shorter tables). No semantic checks: verify proved
// every index in range at compile time.
func (c *RegCode) Run(f []float64) {
	consts := c.Consts
	for _, in := range c.Insts {
		switch in.Op {
		case rConst:
			f[in.Dst] = consts[in.A]
		case rMov:
			f[in.Dst] = f[in.A]
		case rAdd:
			f[in.Dst] = sq(f[in.A] + f[in.B])
		case rSub:
			f[in.Dst] = sq(f[in.A] - f[in.B])
		case rMul:
			f[in.Dst] = sq(f[in.A] * f[in.B])
		case rDiv:
			if b := f[in.B]; b == 0 {
				f[in.Dst] = 0
			} else {
				f[in.Dst] = sq(f[in.A] / b)
			}
		case rMin:
			f[in.Dst] = sq(math.Min(f[in.A], f[in.B]))
		case rMax:
			f[in.Dst] = sq(math.Max(f[in.A], f[in.B]))
		case rLt:
			f[in.Dst] = b2f(f[in.A] < f[in.B])
		case rLe:
			f[in.Dst] = b2f(f[in.A] <= f[in.B])
		case rGt:
			f[in.Dst] = b2f(f[in.A] > f[in.B])
		case rGe:
			f[in.Dst] = b2f(f[in.A] >= f[in.B])
		case rEq:
			f[in.Dst] = b2f(f[in.A] == f[in.B])
		case rNe:
			f[in.Dst] = b2f(f[in.A] != f[in.B])
		case rAnd:
			f[in.Dst] = b2f(f[in.A] != 0 && f[in.B] != 0)
		case rOr:
			f[in.Dst] = b2f(f[in.A] != 0 || f[in.B] != 0)
		case rAddC:
			f[in.Dst] = sq(f[in.A] + consts[in.B])
		case rSubC:
			f[in.Dst] = sq(f[in.A] - consts[in.B])
		case rMulC:
			f[in.Dst] = sq(f[in.A] * consts[in.B])
		case rDivC:
			f[in.Dst] = sq(f[in.A] / consts[in.B])
		case rMinC:
			f[in.Dst] = sq(math.Min(f[in.A], consts[in.B]))
		case rMaxC:
			f[in.Dst] = sq(math.Max(f[in.A], consts[in.B]))
		case rLtC:
			f[in.Dst] = b2f(f[in.A] < consts[in.B])
		case rLeC:
			f[in.Dst] = b2f(f[in.A] <= consts[in.B])
		case rGtC:
			f[in.Dst] = b2f(f[in.A] > consts[in.B])
		case rGeC:
			f[in.Dst] = b2f(f[in.A] >= consts[in.B])
		case rEqC:
			f[in.Dst] = b2f(f[in.A] == consts[in.B])
		case rNeC:
			f[in.Dst] = b2f(f[in.A] != consts[in.B])
		case rSubCR:
			f[in.Dst] = sq(consts[in.B] - f[in.A])
		case rDivCR:
			if a := f[in.A]; a == 0 {
				f[in.Dst] = 0
			} else {
				f[in.Dst] = sq(consts[in.B] / a)
			}
		case rEwma:
			t1 := sq(consts[in.B] * f[in.A])
			t2 := sq(consts[in.D] * f[in.C])
			f[in.Dst] = sq(t1 + t2)
		case rSel:
			if f[in.A] != 0 {
				f[in.Dst] = f[in.B]
			} else {
				f[in.Dst] = f[in.C]
			}
		case rSelLt:
			if f[in.A] < f[in.B] {
				f[in.Dst] = f[in.C]
			} else {
				f[in.Dst] = f[in.D]
			}
		case rSelLe:
			if f[in.A] <= f[in.B] {
				f[in.Dst] = f[in.C]
			} else {
				f[in.Dst] = f[in.D]
			}
		case rSelGt:
			if f[in.A] > f[in.B] {
				f[in.Dst] = f[in.C]
			} else {
				f[in.Dst] = f[in.D]
			}
		case rSelGe:
			if f[in.A] >= f[in.B] {
				f[in.Dst] = f[in.C]
			} else {
				f[in.Dst] = f[in.D]
			}
		case rSelEq:
			if f[in.A] == f[in.B] {
				f[in.Dst] = f[in.C]
			} else {
				f[in.Dst] = f[in.D]
			}
		case rSelNe:
			if f[in.A] != f[in.B] {
				f[in.Dst] = f[in.C]
			} else {
				f[in.Dst] = f[in.D]
			}
		}
	}
}

// Eval executes the program and returns the result value. vars of at least
// FrameLen slots run in place (allocation- and copy-free); a shorter table is
// staged into a frame of this call's own, missing slots reading as 0 as they
// do on the stack reference.
func (c *RegCode) Eval(vars []float64) float64 {
	if len(vars) < c.FrameLen {
		vars = c.shortFrame(vars)
	}
	c.Run(vars)
	return vars[c.Result]
}

// shortFrame copies an undersized variable table into a new frame; the slots
// vars lacks read as 0.
func (c *RegCode) shortFrame(vars []float64) []float64 {
	f := make([]float64, c.FrameLen)
	copy(f, vars)
	return f
}

// verify is the compile-time proof that Run needs no checks: every operand
// index in range, every const index inside the pool, every temp written
// before it is read, and no write outside the allowed destination set
// (temps plus, for fold bodies, the fold's own register slots). It runs
// once at compile time; a failure is a compiler bug surfaced as an error
// instead of a silent wrong value at ACK time.
func (c *RegCode) verify(allowedVarDsts map[uint16]bool) error {
	if c.FrameLen > 0xFFFF {
		return fmt.Errorf("lang: register frame of %d slots exceeds the 16-bit operand space", c.FrameLen)
	}
	// written[i] is whether temp NVars+i has been written. A control
	// expression has a temp or two, which fit in the frame of this call.
	var few [16]bool
	written := few[:]
	if ntemps := c.FrameLen - c.NVars; ntemps > len(few) {
		written = make([]bool, ntemps)
	}
	readOK := func(slot uint16) error {
		if int(slot) >= c.FrameLen {
			return fmt.Errorf("lang: operand slot %d outside frame of %d", slot, c.FrameLen)
		}
		if int(slot) >= c.NVars && !written[int(slot)-c.NVars] {
			return fmt.Errorf("lang: temp slot %d read before write", slot)
		}
		return nil
	}
	constOK := func(idx uint16) error {
		if int(idx) >= len(c.Consts) {
			return fmt.Errorf("lang: const index %d outside pool of %d", idx, len(c.Consts))
		}
		return nil
	}
	for i, in := range c.Insts {
		if in.Op == rNop || in.Op >= numRegOps {
			return fmt.Errorf("lang: inst %d: invalid opcode %v", i, in.Op)
		}
		var reads []uint16
		var constIdx []uint16
		switch in.Op {
		case rConst:
			constIdx = []uint16{in.A}
		case rMov:
			reads = []uint16{in.A}
		case rAdd, rSub, rMul, rDiv, rMin, rMax, rLt, rLe, rGt, rGe, rEq, rNe, rAnd, rOr:
			reads = []uint16{in.A, in.B}
		case rAddC, rSubC, rMulC, rDivC, rMinC, rMaxC, rLtC, rLeC, rGtC, rGeC, rEqC, rNeC, rSubCR, rDivCR:
			reads = []uint16{in.A}
			constIdx = []uint16{in.B}
			if in.Op == rDivC {
				if err := constOK(in.B); err != nil {
					return fmt.Errorf("lang: inst %d: %v", i, err)
				}
				if c.Consts[in.B] == 0 {
					return fmt.Errorf("lang: inst %d: divc by constant zero must fold to 0 at compile time", i)
				}
			}
		case rEwma:
			reads = []uint16{in.A, in.C}
			constIdx = []uint16{in.B, in.D}
		case rSel:
			reads = []uint16{in.A, in.B, in.C}
		case rSelLt, rSelLe, rSelGt, rSelGe, rSelEq, rSelNe:
			reads = []uint16{in.A, in.B, in.C, in.D}
		}
		for _, s := range reads {
			if err := readOK(s); err != nil {
				return fmt.Errorf("lang: inst %d (%v): %v", i, in.Op, err)
			}
		}
		for _, idx := range constIdx {
			if err := constOK(idx); err != nil {
				return fmt.Errorf("lang: inst %d (%v): %v", i, in.Op, err)
			}
		}
		if int(in.Dst) >= c.FrameLen {
			return fmt.Errorf("lang: inst %d (%v): write to slot %d outside frame of %d", i, in.Op, in.Dst, c.FrameLen)
		}
		if int(in.Dst) < c.NVars && !allowedVarDsts[in.Dst] {
			return fmt.Errorf("lang: inst %d (%v): write to variable slot %d not in the destination set", i, in.Op, in.Dst)
		}
		if int(in.Dst) >= c.NVars {
			written[int(in.Dst)-c.NVars] = true
		}
	}
	if int(c.Result) >= c.FrameLen {
		return fmt.Errorf("lang: result slot %d outside frame of %d", c.Result, c.FrameLen)
	}
	if int(c.Result) >= c.NVars && !written[int(c.Result)-c.NVars] {
		return fmt.Errorf("lang: result temp %d never written", c.Result)
	}
	return nil
}
