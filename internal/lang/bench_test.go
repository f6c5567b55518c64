package lang

import "testing"

// wideFold is a multi-update fold exercising the optimizer's whole
// catalog at once: EWMA smoothing, min/max accumulation, a shared
// subexpression across updates, select-of-comparison, and var⊕const
// arithmetic — the shape of a serious measurement program.
func wideFold() *FoldSpec {
	excess := Sub(V("pkt.rtt"), V("base_rtt"))
	return &FoldSpec{
		Regs: []RegDef{
			{Name: "base_rtt", Init: 1e9},
			{Name: "s_rtt", Init: 0},
			{Name: "max_rate", Init: 0},
			{Name: "acked_tot", Init: 0},
			{Name: "lost_tot", Init: 0},
			{Name: "q_delay", Init: 0},
			{Name: "cong", Init: 0},
		},
		Updates: []Assign{
			{Dst: "base_rtt", E: Min(V("base_rtt"), V("pkt.rtt"))},
			{Dst: "s_rtt", E: Add(Mul(C(0.875), V("s_rtt")), Mul(C(0.125), V("pkt.rtt")))},
			{Dst: "max_rate", E: Max(V("max_rate"), V("pkt.rcv_rate"))},
			{Dst: "acked_tot", E: Add(V("acked_tot"), V("pkt.acked"))},
			{Dst: "lost_tot", E: Add(V("lost_tot"), V("pkt.lost"))},
			{Dst: "q_delay", E: Mul(excess, V("pkt.rcv_rate"))},
			{Dst: "cong", E: Ite(Gt(excess, C(0.01)), Add(V("cong"), C(1)), V("cong"))},
		},
	}
}

func benchFoldStep(b *testing.B, spec *FoldSpec) {
	cf, err := CompileFold(spec)
	if err != nil {
		b.Fatal(err)
	}
	vars := make([]float64, cf.FrameLen())
	cf.InitRegs(vars)
	vars[PktFieldSlot(FieldRTT)] = 0.05
	vars[PktFieldSlot(FieldAcked)] = 1448
	vars[PktFieldSlot(FieldRcvRate)] = 1.2e7
	vars[FlowVarSlot(FlowCwnd)] = 14480
	vars[FlowVarSlot(FlowMSS)] = 1448
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.Step(vars)
	}
}

// BenchmarkFoldStep is the per-ACK cost pinned in bench/baseline.txt, on the
// single-update Vegas fold and the wide multi-update fold. (The lane names
// keep their /register suffix so the baseline's history stays comparable.)
func BenchmarkFoldStep(b *testing.B) {
	b.Run("vegas/register", func(b *testing.B) { benchFoldStep(b, vegasFold()) })
	b.Run("wide/register", func(b *testing.B) { benchFoldStep(b, wideFold()) })
}
