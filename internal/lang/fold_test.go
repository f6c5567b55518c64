package lang

import (
	"math"
	"testing"
)

// vegasFold builds the paper's §2.4 Vegas fold: track min RTT and a cwnd
// delta derived from the estimated queue occupancy.
func vegasFold() *FoldSpec {
	inQ := Div(Mul(Sub(V("pkt.rtt"), V("base_rtt")), V("cwnd")), Max(V("base_rtt"), C(1e-9)))
	return &FoldSpec{
		Regs: []RegDef{
			{Name: "base_rtt", Init: 1e9},
			{Name: "delta", Init: 0},
		},
		Updates: []Assign{
			{Dst: "base_rtt", E: Min(V("base_rtt"), V("pkt.rtt"))},
			{Dst: "delta", E: Ite(Lt(inQ, C(2)),
				Add(V("delta"), C(1)),
				Ite(Gt(inQ, C(4)), Sub(V("delta"), C(1)), V("delta")))},
		},
	}
}

// TestWithInitsSharesCode: a fold re-based on other Init values is the fold
// CompileFold makes of the spec with those values — same start, same steps —
// and the one it came from is untouched.
func TestWithInitsSharesCode(t *testing.T) {
	spec := vegasFold()
	cf, err := CompileFold(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalProgram(NewProgram().MeasureFold(spec).WaitRtts(1).Report().MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	_, inits, err := MeasureInits(data)
	if err != nil {
		t.Fatal(err)
	}
	moved := append([]byte(nil), data...)
	copy(moved[inits[0]:], appendF64(nil, 0.02))
	copy(moved[inits[1]:], appendF64(nil, math.Copysign(0, -1)))

	got := cf.WithInits(moved, inits)
	fresh := vegasFold()
	fresh.Regs[0].Init, fresh.Regs[1].Init = 0.02, math.Copysign(0, -1)
	want, err := CompileFold(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got.reg != cf.reg || &got.Spec.Updates[0] != &spec.Updates[0] {
		t.Fatal("WithInits copied the code or the updates")
	}
	if spec.Regs[0].Init != 1e9 || spec.Regs[1].Init != 0 || cf.Spec != spec {
		t.Fatalf("WithInits wrote the spec it came from: %+v", spec.Regs)
	}
	a, b := make([]float64, got.FrameLen()), make([]float64, want.FrameLen())
	got.InitRegs(a)
	want.InitRegs(b)
	for step := 0; step < 50; step++ {
		for _, vars := range [][]float64{a, b} {
			vars[PktFieldSlot(FieldRTT)] = 0.01 + 0.001*float64(step%7)
			vars[FlowVarSlot(FlowCwnd)] = 14480
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("step %d slot %d: re-based fold %v, compiled fold %v", step, i, a[i], b[i])
			}
		}
		got.Step(a)
		want.Step(b)
	}
}

func TestFoldValidate(t *testing.T) {
	if err := vegasFold().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFoldValidateRejectsReservedName(t *testing.T) {
	f := &FoldSpec{Regs: []RegDef{{Name: "cwnd"}}}
	if err := f.Validate(); err == nil {
		t.Fatal("reserved register name accepted")
	}
	f = &FoldSpec{Regs: []RegDef{{Name: "pkt.rtt"}}}
	if err := f.Validate(); err == nil {
		t.Fatal("pkt field register name accepted")
	}
}

func TestFoldValidateRejectsDuplicates(t *testing.T) {
	f := &FoldSpec{Regs: []RegDef{{Name: "a"}, {Name: "a"}}}
	if err := f.Validate(); err == nil {
		t.Fatal("duplicate register accepted")
	}
}

func TestFoldValidateRejectsUndeclaredDst(t *testing.T) {
	f := &FoldSpec{
		Regs:    []RegDef{{Name: "a"}},
		Updates: []Assign{{Dst: "b", E: C(1)}},
	}
	if err := f.Validate(); err == nil {
		t.Fatal("undeclared assignment target accepted")
	}
}

func TestFoldValidateRejectsUnknownVar(t *testing.T) {
	f := &FoldSpec{
		Regs:    []RegDef{{Name: "a"}},
		Updates: []Assign{{Dst: "a", E: V("mystery")}},
	}
	if err := f.Validate(); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestFoldValidateRejectsEmptyName(t *testing.T) {
	f := &FoldSpec{Regs: []RegDef{{Name: ""}}}
	if err := f.Validate(); err == nil {
		t.Fatal("empty register name accepted")
	}
}

func TestVegasFoldSemantics(t *testing.T) {
	cf, err := CompileFold(vegasFold())
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, VarTableSize(cf.NumRegs()))
	cf.InitRegs(vars)
	vars[FlowVarSlot(FlowCwnd)] = 10 // cwnd counted in packets for this test

	// First packet: rtt 100ms. base_rtt becomes 0.1; inQ = 0 => delta +1.
	vars[PktFieldSlot(FieldRTT)] = 0.100
	cf.Step(vars)
	if got := vars[RegSlot(0)]; got != 0.100 {
		t.Fatalf("base_rtt=%v", got)
	}
	if got := vars[RegSlot(1)]; got != 1 {
		t.Fatalf("delta=%v, want 1", got)
	}

	// RTT inflated to 150ms: inQ = (0.05*10)/0.1 = 5 > 4 => delta -1.
	vars[PktFieldSlot(FieldRTT)] = 0.150
	cf.Step(vars)
	if got := vars[RegSlot(1)]; got != 0 {
		t.Fatalf("delta=%v, want 0", got)
	}

	// RTT 130ms: inQ = 3, between thresholds => unchanged.
	vars[PktFieldSlot(FieldRTT)] = 0.130
	cf.Step(vars)
	if got := vars[RegSlot(1)]; got != 0 {
		t.Fatalf("delta=%v, want 0", got)
	}
}

func TestFoldSequentialSemantics(t *testing.T) {
	// The second update must observe the first update's result.
	f := &FoldSpec{
		Regs: []RegDef{{Name: "a", Init: 0}, {Name: "b", Init: 0}},
		Updates: []Assign{
			{Dst: "a", E: Add(V("a"), C(1))},
			{Dst: "b", E: Mul(V("a"), C(10))},
		},
	}
	cf, err := CompileFold(f)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, VarTableSize(2))
	cf.InitRegs(vars)
	cf.Step(vars)
	if vars[RegSlot(0)] != 1 || vars[RegSlot(1)] != 10 {
		t.Fatalf("a=%v b=%v, want 1, 10", vars[RegSlot(0)], vars[RegSlot(1)])
	}
	cf.Step(vars)
	if vars[RegSlot(0)] != 2 || vars[RegSlot(1)] != 20 {
		t.Fatalf("a=%v b=%v, want 2, 20", vars[RegSlot(0)], vars[RegSlot(1)])
	}
}

func TestFoldReadRegs(t *testing.T) {
	cf, err := CompileFold(vegasFold())
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, VarTableSize(cf.NumRegs()))
	cf.InitRegs(vars)
	out := cf.ReadRegs(vars, nil)
	if len(out) != 2 || out[0] != 1e9 || out[1] != 0 {
		t.Fatalf("regs=%v", out)
	}
}

func TestFoldInitRegsResets(t *testing.T) {
	cf, err := CompileFold(vegasFold())
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, VarTableSize(cf.NumRegs()))
	cf.InitRegs(vars)
	vars[PktFieldSlot(FieldRTT)] = 0.01
	cf.Step(vars)
	cf.InitRegs(vars)
	if vars[RegSlot(0)] != 1e9 || vars[RegSlot(1)] != 0 {
		t.Fatal("InitRegs did not reset registers")
	}
}

func TestEWMAFoldExpressible(t *testing.T) {
	// EWMA is expressible in the pure language: r = 0.875r + 0.125x, with an
	// init flag to seed the first sample.
	f := &FoldSpec{
		Regs: []RegDef{{Name: "seen", Init: 0}, {Name: "srtt_est", Init: 0}},
		Updates: []Assign{
			{Dst: "srtt_est", E: Ite(Eq(V("seen"), C(0)),
				V("pkt.rtt"),
				Add(Mul(C(0.875), V("srtt_est")), Mul(C(0.125), V("pkt.rtt"))))},
			{Dst: "seen", E: C(1)},
		},
	}
	cf, err := CompileFold(f)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, VarTableSize(2))
	cf.InitRegs(vars)
	vars[PktFieldSlot(FieldRTT)] = 0.100
	cf.Step(vars)
	if got := vars[RegSlot(1)]; got != 0.100 {
		t.Fatalf("first sample: %v", got)
	}
	vars[PktFieldSlot(FieldRTT)] = 0.200
	cf.Step(vars)
	want := 0.875*0.100 + 0.125*0.200
	if got := vars[RegSlot(1)]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ewma=%v, want %v", got, want)
	}
}

func TestFieldNamesRoundTrip(t *testing.T) {
	for f := Field(0); f < NumPktFields; f++ {
		got, ok := FieldByName(f.String())
		if !ok || got != f {
			t.Fatalf("field %v does not round-trip", f)
		}
	}
	for v := FlowVar(0); v < NumFlowVars; v++ {
		got, ok := FlowVarByName(v.String())
		if !ok || got != v {
			t.Fatalf("flow var %v does not round-trip", v)
		}
	}
	if _, ok := FieldByName("pkt.nope"); ok {
		t.Fatal("bogus field resolved")
	}
}

func TestVarTableLayoutDisjoint(t *testing.T) {
	seen := map[int]string{}
	for f := Field(0); f < NumPktFields; f++ {
		seen[PktFieldSlot(f)] = f.String()
	}
	for v := FlowVar(0); v < NumFlowVars; v++ {
		slot := FlowVarSlot(v)
		if prev, dup := seen[slot]; dup {
			t.Fatalf("slot %d shared by %s and %s", slot, prev, v)
		}
		seen[slot] = v.String()
	}
	for i := 0; i < 4; i++ {
		slot := RegSlot(i)
		if prev, dup := seen[slot]; dup {
			t.Fatalf("slot %d shared by %s and reg %d", slot, prev, i)
		}
		seen[slot] = "reg"
	}
	if VarTableSize(4) != len(seen) {
		t.Fatalf("VarTableSize(4)=%d, want %d", VarTableSize(4), len(seen))
	}
}
