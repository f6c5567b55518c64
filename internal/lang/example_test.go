package lang_test

import (
	"fmt"

	"github.com/ccp-repro/ccp/internal/lang"
)

// ExampleParseProgram parses the paper's §2.1 BBR pulse pattern from its
// textual form.
func ExampleParseProgram() {
	p, err := lang.ParseProgram(`
		Rate(1.25*rate).WaitRtts(1.0).Report().
		Rate(0.75*rate).WaitRtts(1.0).Report().
		Rate(rate).WaitRtts(6.0).Report()`)
	if err != nil {
		fmt.Println("parse error:", err)
		return
	}
	fmt.Println(len(p.Instrs), "instructions")
	fmt.Println(p.Instrs[0])
	// Output:
	// 9 instructions
	// Rate((* 1.25 rate))
}

// ExampleParseFold builds the paper's §2.4 Vegas fold from the
// S-expression dialect and runs it over two synthetic ACKs.
func ExampleParseFold() {
	fold, err := lang.ParseFold(`
		(def (base_rtt 1e9) (delta 0))
		(:= base_rtt (min base_rtt pkt.rtt))
		(:= delta (if (< (/ (* (- pkt.rtt base_rtt) (/ cwnd mss)) (max base_rtt 1e-9)) 2)
		              (+ delta 1)
		              (if (> (/ (* (- pkt.rtt base_rtt) (/ cwnd mss)) (max base_rtt 1e-9)) 4)
		                  (- delta 1) delta)))`)
	if err != nil {
		fmt.Println("parse error:", err)
		return
	}
	cf, err := lang.CompileFold(fold)
	if err != nil {
		fmt.Println("compile error:", err)
		return
	}
	vars := make([]float64, cf.FrameLen())
	cf.InitRegs(vars)
	vars[lang.FlowVarSlot(lang.FlowCwnd)] = 10 * 1448
	vars[lang.FlowVarSlot(lang.FlowMSS)] = 1448

	vars[lang.PktFieldSlot(lang.FieldRTT)] = 0.100 // empty queue
	cf.Step(vars)
	vars[lang.PktFieldSlot(lang.FieldRTT)] = 0.170 // 7 packets queued
	cf.Step(vars)

	regs := cf.ReadRegs(vars, nil)
	fmt.Printf("base_rtt=%.3fs delta=%+.0f\n", regs[0], regs[1])
	// Output:
	// base_rtt=0.100s delta=+0
}

// ExampleNewProgram assembles a program with the fluent builder and prints
// its canonical dotted form.
func ExampleNewProgram() {
	p := lang.NewProgram().
		MeasureVector(lang.FieldRTT, lang.FieldAcked).
		Cwnd(lang.Add(lang.V("cwnd"), lang.V("mss"))).
		WaitRtts(1).
		Report().
		MustBuild()
	fmt.Println(p)
	// Output:
	// Measure(rtt, acked).Cwnd((+ cwnd mss)).WaitRtts(1).Report()
}

// ExampleEval evaluates an expression the way the agent does when applying
// policies.
func ExampleEval() {
	// Clamp a rate expression at 1 MB/s, as a policy rewrite would.
	e := lang.Min(lang.Mul(lang.C(2), lang.V("rate")), lang.C(1e6))
	v, err := lang.Eval(e, func(name string) (float64, bool) {
		if name == "rate" {
			return 750_000, true
		}
		return 0, false
	})
	if err != nil {
		fmt.Println("eval error:", err)
		return
	}
	fmt.Printf("%.0f\n", v)
	// Output:
	// 1000000
}
