// Package randprog generates seeded random datapath programs, and keeps the
// hand-written wire programs (wire.go), for the differential and fuzz tests of
// internal/lang and internal/datapath. It is test support: nothing outside
// _test files imports it.
package randprog

import (
	"math"
	"math/rand"

	"github.com/ccp-repro/ccp/internal/lang"
)

// Program builds a structurally valid random program: random measure
// mode (with a matching fold/vector spec) and a random instruction mix.
//
//lint:testsupport the generator of lang's fuzz, validate and randprog tests and datapath's install, derive, by-reference and backend tests
func Program(rng *rand.Rand) *lang.Program {
	p := &lang.Program{}
	var regNames []string
	switch rng.Intn(3) {
	case 0:
		p.Measure = lang.MeasureSpec{Mode: lang.MeasureEWMA}
	case 1:
		nregs := 1 + rng.Intn(4)
		fold := &lang.FoldSpec{}
		for i := 0; i < nregs; i++ {
			name := string(rune('a'+i)) + "_reg"
			fold.Regs = append(fold.Regs, lang.RegDef{Name: name, Init: math.Trunc(rng.Float64()*100) / 2})
			regNames = append(regNames, name)
		}
		nupd := 1 + rng.Intn(3)
		for i := 0; i < nupd; i++ {
			dst := regNames[rng.Intn(len(regNames))]
			var e lang.Expr
			if rng.Intn(3) == 0 {
				// Accumulate shape (dst = op(dst, x)): the register
				// backend's destination-retargeting fusion target.
				accOps := []lang.BinKind{lang.OpMin, lang.OpMax, lang.OpAdd}
				e = &lang.Bin{Op: accOps[rng.Intn(len(accOps))], L: lang.Var(dst), R: ExprOver(rng, 2, regNames)}
			} else {
				e = ExprOver(rng, 3, regNames)
			}
			fold.Updates = append(fold.Updates, lang.Assign{Dst: dst, E: e})
		}
		p.Measure = lang.MeasureSpec{Mode: lang.MeasureFold, Fold: fold}
	default:
		nf := 1 + rng.Intn(int(lang.NumPktFields))
		for i := 0; i < nf; i++ {
			p.Measure.Fields = append(p.Measure.Fields, lang.Field(rng.Intn(int(lang.NumPktFields))))
		}
		p.Measure.Mode = lang.MeasureVector
	}
	ninstr := 1 + rng.Intn(8)
	for i := 0; i < ninstr; i++ {
		switch rng.Intn(5) {
		case 0:
			p.Instrs = append(p.Instrs, lang.SetRate{E: ExprOver(rng, 3, regNames)})
		case 1:
			p.Instrs = append(p.Instrs, lang.SetCwnd{E: ExprOver(rng, 3, regNames)})
		case 2:
			p.Instrs = append(p.Instrs, lang.Wait{Seconds: lang.Const(rng.Float64())})
		case 3:
			p.Instrs = append(p.Instrs, lang.WaitRtts{Rtts: lang.Const(rng.Float64() * 8)})
		default:
			p.Instrs = append(p.Instrs, lang.Report{})
		}
	}
	p.UrgentECN = rng.Intn(2) == 0
	return p
}

// ExprOver builds a random expression over built-ins plus the given
// register names.
func ExprOver(rng *rand.Rand, depth int, regs []string) lang.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return lang.Const(math.Trunc(rng.Float64()*100) / 4)
		case 1:
			if len(regs) > 0 && rng.Intn(2) == 0 {
				return lang.Var(regs[rng.Intn(len(regs))])
			}
			return lang.Var(lang.Field(rng.Intn(int(lang.NumPktFields))).String())
		default:
			return lang.Var(lang.FlowVar(rng.Intn(int(lang.NumFlowVars))).String())
		}
	}
	switch rng.Intn(12) {
	case 0, 1:
		return &lang.If{
			Cond: ExprOver(rng, depth-1, regs),
			Then: ExprOver(rng, depth-1, regs),
			Else: ExprOver(rng, depth-1, regs),
		}
	case 2:
		// EWMA shape a*x + (1-a)*y: the register backend's fused form.
		a := math.Trunc(rng.Float64()*1000) / 1000
		return &lang.Bin{Op: lang.OpAdd,
			L: &lang.Bin{Op: lang.OpMul, L: lang.Const(a), R: ExprOver(rng, depth-1, regs)},
			R: &lang.Bin{Op: lang.OpMul, L: lang.Const(1 - a), R: ExprOver(rng, depth-1, regs)},
		}
	case 3:
		// Select-of-comparison: fused into a single dispatch.
		cmps := []lang.BinKind{lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe, lang.OpEq, lang.OpNe}
		return &lang.If{
			Cond: &lang.Bin{Op: cmps[rng.Intn(len(cmps))],
				L: ExprOver(rng, depth-1, regs),
				R: ExprOver(rng, depth-1, regs)},
			Then: ExprOver(rng, depth-1, regs),
			Else: ExprOver(rng, depth-1, regs),
		}
	case 4:
		// var ⊕ const and const ⊕ var: the inline-constant forms, with
		// constant-left placement to exercise canonicalization.
		op := lang.BinKind(rng.Intn(int(lang.NumBinKinds)))
		c := lang.Const(math.Trunc(rng.Float64()*64) / 2)
		v := ExprOver(rng, 0, regs)
		if rng.Intn(2) == 0 {
			return &lang.Bin{Op: op, L: c, R: v}
		}
		return &lang.Bin{Op: op, L: v, R: c}
	}
	return &lang.Bin{
		Op: lang.BinKind(rng.Intn(int(lang.NumBinKinds))),
		L:  ExprOver(rng, depth-1, regs),
		R:  ExprOver(rng, depth-1, regs),
	}
}
