package lang_test

import (
	"fmt"

	"github.com/ccp-repro/ccp/internal/lang"
)

// ExampleProgram_String builds the paper's §2.1 BBR pulse pattern — probe at
// 1.25× for a round trip, drain at 0.75×, cruise for six — and prints how an
// instruction reads.
func ExampleProgram_String() {
	rate := lang.V("rate")
	p, err := lang.NewProgram().
		Rate(lang.Mul(lang.C(1.25), rate)).WaitRtts(1).Report().
		Rate(lang.Mul(lang.C(0.75), rate)).WaitRtts(1).Report().
		Rate(rate).WaitRtts(6).Report().
		Build()
	if err != nil {
		fmt.Println("build error:", err)
		return
	}
	fmt.Println(len(p.Instrs), "instructions")
	fmt.Println(p.Instrs[0])
	// Output:
	// 9 instructions
	// Rate((* 1.25 rate))
}

// ExampleFoldSpec builds the paper's §2.4 Vegas fold — the minimum RTT seen,
// and a window delta stepped by the estimated queue occupancy in packets —
// and runs it over two synthetic ACKs.
func ExampleFoldSpec() {
	baseRTT, delta := lang.V("base_rtt"), lang.V("delta")
	queued := lang.Div(
		lang.Mul(lang.Sub(lang.V("pkt.rtt"), baseRTT), lang.Div(lang.V("cwnd"), lang.V("mss"))),
		lang.Max(baseRTT, lang.C(1e-9)))
	fold := &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "base_rtt", Init: 1e9}, {Name: "delta", Init: 0}},
		Updates: []lang.Assign{
			{Dst: "base_rtt", E: lang.Min(baseRTT, lang.V("pkt.rtt"))},
			{Dst: "delta", E: lang.Ite(lang.Lt(queued, lang.C(2)),
				lang.Add(delta, lang.C(1)),
				lang.Ite(lang.Gt(queued, lang.C(4)), lang.Sub(delta, lang.C(1)), delta))},
		},
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
// it whole.
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
