package lang

import (
	"testing"

	"github.com/ccp-repro/ccp/internal/testenv"
)

// TestAllocsFoldStep pins the per-ACK fold execution at zero allocations:
// Step runs once per ACK on the datapath hot path, so a single allocation
// here multiplies by the packet rate. The table is FrameLen-sized, as every
// flow's is (datapath.activate).
func TestAllocsFoldStep(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cf, err := CompileFold(vegasFold())
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, cf.FrameLen())
	cf.InitRegs(vars)
	vars[PktFieldSlot(FieldRTT)] = 0.1
	vars[FlowVarSlot(FlowCwnd)] = 14480
	vars[FlowVarSlot(FlowMSS)] = 1448
	if allocs := testing.AllocsPerRun(1000, func() { cf.Step(vars) }); allocs != 0 {
		t.Fatalf("CompiledFold.Step allocated %.1f times per op, want 0", allocs)
	}

	// Reading the registers back into a reused destination is also on
	// the report path and must stay free.
	dst := make([]float64, 0, cf.NumRegs())
	if allocs := testing.AllocsPerRun(1000, func() { dst = cf.ReadRegs(vars, dst[:0]) }); allocs != 0 {
		t.Fatalf("CompiledFold.ReadRegs allocated %.1f times per op, want 0", allocs)
	}
}

// TestAllocsRegExprEval pins control-expression evaluation on the register
// VM at zero allocations over a FrameLen-sized table.
func TestAllocsRegExprEval(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := Ite(Gt(V("pkt.lost"), C(0)), Mul(C(0.5), V("cwnd")), Add(V("cwnd"), V("mss")))
	code, err := CompileReg(e, StdResolver(nil), VarTableSize(0))
	if err != nil {
		t.Fatal(err)
	}
	full := make([]float64, code.FrameLen)
	full[FlowVarSlot(FlowCwnd)] = 14480
	if allocs := testing.AllocsPerRun(1000, func() { code.Eval(full) }); allocs != 0 {
		t.Fatalf("RegCode.Eval allocated %.1f times per op, want 0", allocs)
	}
}

// TestAllocsProgramCodec pins the per-Install codec costs that are not the
// program itself: the install path's skip-scan (it runs before anything is
// known about the program) and its shape test allocate nothing, and
// MarshalProgram sizes its buffer up front and exactly — the agent keeps the
// result per flow, twice, and snapshots copy it — so encoding is the one
// allocation of the result with no slack behind it.
func TestAllocsProgramCodec(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	p := NewProgram().MeasureFold(vegasFold()).Cwnd(C(14480)).WaitRtts(1).Report().MustBuild()
	data, err := MarshalProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cap(data) {
		t.Fatalf("MarshalProgram returned %d bytes in a buffer of %d", len(data), cap(data))
	}
	if allocs := testing.AllocsPerRun(1000, func() { _, _ = MarshalProgram(p) }); allocs != 1 {
		t.Fatalf("MarshalProgram allocated %.1f times per op, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _, _ = MeasurePrefixLen(data) }); allocs != 0 {
		t.Fatalf("MeasurePrefixLen allocated %.1f times per op, want 0", allocs)
	}
	// The shape test runs on every artifact miss of a flow that has a fold.
	end, inits, err := MeasureInits(data)
	if err != nil {
		t.Fatal(err)
	}
	prefix := string(data[:end])
	if allocs := testing.AllocsPerRun(1000, func() { _ = SameShape(prefix, data[:end], inits) }); allocs != 0 {
		t.Fatalf("SameShape allocated %.1f times per op, want 0", allocs)
	}
}
