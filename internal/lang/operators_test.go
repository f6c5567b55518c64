package lang

import (
	"bytes"
	"math"
	"testing"
)

// opSamples are the operand values every operator is walked over: the ones
// that break floating-point identities, and a few that do not.
var opSamples = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, math.MaxFloat64, -math.MaxFloat64, 1, 3, -2.5,
}

// TestEveryOperatorEverywhere walks each BinKind through every place that
// gives it meaning or a spelling, against applyBin, its definition: the
// tree-walker, the stack reference, the register compiler's four operand
// shapes, the wire format and its printed name. (The abstract transfer
// function's leg is TestTransferContainsEveryOperator in absint.) An
// operator added to the enum and missing from any of them fails here under
// its own name.
func TestEveryOperatorEverywhere(t *testing.T) {
	if len(binNames) != int(NumBinKinds) {
		t.Fatalf("binNames has %d entries for %d operators", len(binNames), NumBinKinds)
	}
	resolve := StdResolver(nil)
	nvars := VarTableSize(0)
	a, b := V("pkt.rtt"), V("pkt.acked")
	slotA, slotB := PktFieldSlot(FieldRTT), PktFieldSlot(FieldAcked)

	for op := BinKind(0); op < NumBinKinds; op++ {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			// Spellings: the printed name (unique, or two operators read as
			// one in every Program.String()), then the wire.
			sym := &Bin{op, V("a"), V("b")}
			if want := "(" + binNames[op] + " a b)"; binNames[op] == "" || sym.String() != want {
				t.Errorf("prints as %q, want %q", sym, want)
			}
			for other := BinKind(0); other < op; other++ {
				if binNames[other] == binNames[op] {
					t.Errorf("prints as %q, and so does operator %d", binNames[op], other)
				}
			}
			prog := NewProgram().MeasureEWMA().Cwnd(&Bin{op, a, C(3)}).WaitRtts(1).Report().MustBuild()
			data, err := MarshalProgram(prog)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := UnmarshalProgram(data)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if again, _ := MarshalProgram(back); !bytes.Equal(data, again) || back.String() != prog.String() {
				t.Errorf("wire round trip changed the program:\n %s\n %s", prog, back)
			}

			// The var⊕var lowering is one instruction of this operator's own.
			vv, err := CompileReg(&Bin{op, a, b}, resolve, nvars)
			if err != nil {
				t.Fatalf("var⊕var: %v", err)
			}
			if len(vv.Insts) != 1 || vv.Insts[0].Op != rrOps[op] || rrOps[op] == rNop {
				t.Errorf("var⊕var lowered to %v, want one %v", vv.Insts, rrOps[op])
			}

			// Values, bit for bit, at every pair of sample points.
			for _, l := range opSamples {
				for _, r := range opSamples {
					var ev Events
					want := applyBin(op, l, r, &ev)
					if math.IsNaN(want) || math.IsInf(want, 0) {
						t.Fatalf("%v %s %v = %v: operators are total", l, op, r, want)
					}
					if divZero := op == OpDiv && r == 0; (ev.DivZero == 1) != divZero || ev.DivZero+ev.Squash > 1 {
						t.Errorf("%v %s %v reported %+v", l, op, r, ev)
					}
					vars := make([]float64, nvars)
					vars[slotA], vars[slotB] = l, r
					env := func(name string) (float64, bool) {
						slot, ok := resolve(name)
						return vars[slot], ok
					}
					check := func(where string, got float64) {
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s: %v %s %v = %v (%#x), want %v (%#x)", where, l, op, r,
								got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
					for _, form := range []struct {
						name string
						e    Expr
					}{
						{"var⊕var", &Bin{op, a, b}},
						{"var⊕const", &Bin{op, a, C(r)}},
						{"const⊕var", &Bin{op, C(l), b}},
						{"const⊕const", &Bin{op, C(l), C(r)}},
					} {
						got, err := Eval(form.e, env)
						if err != nil {
							t.Fatal(err)
						}
						check("tree-walker "+form.name, got)
						stack, err := Compile(form.e, resolve)
						if err != nil {
							t.Fatal(err)
						}
						check("stack reference "+form.name, stack.Eval(vars, nil))
						reg, err := CompileReg(form.e, resolve, nvars)
						if err != nil {
							t.Fatalf("register %s: %v", form.name, err)
						}
						frame := make([]float64, reg.FrameLen)
						copy(frame, vars)
						check("register "+form.name, reg.Eval(frame))
					}
				}
			}
		})
	}
}
