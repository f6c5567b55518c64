package core

import (
	"slices"
	"testing"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// recordAlg records every callback for assertions.
type recordAlg struct {
	inits    int
	measures []Measurement
	urgents  []UrgentEvent
	releases int
	onInit   func(f *Flow)
}

func (r *recordAlg) Name() string { return "record" }
func (r *recordAlg) Init(f *Flow) {
	r.inits++
	if r.onInit != nil {
		r.onInit(f)
	}
}
func (r *recordAlg) OnMeasurement(f *Flow, m Measurement) { r.measures = append(r.measures, m) }
func (r *recordAlg) OnUrgent(f *Flow, u UrgentEvent)      { r.urgents = append(r.urgents, u) }
func (r *recordAlg) Release(f *Flow)                      { r.releases++ }

// capture collects agent→datapath messages.
type capture struct {
	msgs []proto.Msg
}

func (c *capture) send(m proto.Msg) error {
	c.msgs = append(c.msgs, proto.Clone(m)) // m is the agent's scratch
	return nil
}

func newTestAgent(t *testing.T, alg *recordAlg, policy PolicyFunc) *Agent {
	t.Helper()
	reg := NewRegistry()
	reg.Register("record", func() Alg { return alg })
	a, err := NewAgent(AgentConfig{Registry: reg, DefaultAlg: "record", Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func createMsg(sid uint32) *proto.Create {
	return &proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480, SrcAddr: "a", DstAddr: "b"}
}

func TestAgentCreateDispatchesInit(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	if alg.inits != 1 {
		t.Fatalf("inits=%d", alg.inits)
	}
	if a.FlowCount() != 1 || a.Stats().FlowsCreated != 1 {
		t.Fatalf("flow accounting wrong: %+v", a.Stats())
	}
}

func TestAgentMeasurementNaming(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	// Before any install, EWMA names apply.
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{0.01, 2, 3, 4, 5, 0.5, 0.011}}, cap.send)
	if len(alg.measures) != 1 {
		t.Fatalf("measures=%d", len(alg.measures))
	}
	m := alg.measures[0]
	if v, ok := m.Get("rtt"); !ok || v != 0.01 {
		t.Fatalf("rtt=%v ok=%v", v, ok)
	}
	if v, ok := m.Get("ecn_frac"); !ok || v != 0.5 {
		t.Fatalf("ecn_frac=%v ok=%v", v, ok)
	}
	if _, ok := m.Get("bogus"); ok {
		t.Fatal("bogus field resolved")
	}
	if m.GetOr("bogus", 42) != 42 {
		t.Fatal("GetOr default wrong")
	}
}

func TestAgentFoldNamesAfterInstall(t *testing.T) {
	alg := &recordAlg{}
	alg.onInit = func(f *Flow) {
		fold := &lang.FoldSpec{
			Regs:    []lang.RegDef{{Name: "m1", Init: 0}, {Name: "m2", Init: 0}},
			Updates: []lang.Assign{{Dst: "m1", E: lang.Add(lang.V("m1"), lang.V("pkt.acked"))}},
		}
		p := lang.NewProgram().MeasureFold(fold).WaitRtts(1).Report().MustBuild()
		if err := f.Install(p); err != nil {
			t.Errorf("install: %v", err)
		}
	}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{7, 9}}, cap.send)
	m := alg.measures[0]
	if v, _ := m.Get("m1"); v != 7 {
		t.Fatalf("m1=%v", v)
	}
	if v, _ := m.Get("m2"); v != 9 {
		t.Fatalf("m2=%v", v)
	}
}

// TestFlowKeepsReportNamesWhileTheyHold: an algorithm that installs per report
// sends the same register names every time, so the cached name list survives
// those Installs — the same slice, not an equal one — and is dropped the
// moment a name, the register count or the mode changes, or a refusal rolls
// the program back.
func TestFlowKeepsReportNamesWhileTheyHold(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.mu.Lock()
	flow := a.flows[1].flow
	a.mu.Unlock()

	fold := func(init float64, names ...string) *lang.Program {
		f := &lang.FoldSpec{}
		for _, n := range names {
			f.Regs = append(f.Regs, lang.RegDef{Name: n, Init: init})
		}
		f.Updates = []lang.Assign{{Dst: names[0], E: lang.Add(lang.V(names[0]), lang.V("pkt.acked"))}}
		return lang.NewProgram().MeasureFold(f).WaitRtts(1).Report().MustBuild()
	}
	seq := uint32(0)
	namesAfter := func(p *lang.Program) []string {
		t.Helper()
		if err := flow.Install(p); err != nil {
			t.Fatal(err)
		}
		seq++
		a.HandleMessage(&proto.Measurement{SID: 1, Seq: seq, Fields: []float64{1, 2, 3}[:len(p.RegNames())]}, cap.send)
		return alg.measures[len(alg.measures)-1].Names
	}
	same := func(x, y []string) bool { return len(x) == len(y) && &x[0] == &y[0] }
	equal := func(x []string, y ...string) bool { return slices.Equal(x, y) }

	first := namesAfter(fold(0, "m1", "m2"))
	if !equal(first, "m1", "m2") {
		t.Fatalf("names %v", first)
	}
	if again := namesAfter(fold(7, "m1", "m2")); !same(first, again) {
		t.Fatal("an Install of the same register names dropped the cached list")
	}
	if renamed := namesAfter(fold(7, "m1", "m3")); !equal(renamed, "m1", "m3") {
		t.Fatalf("after a rename: %v", renamed)
	}
	if grown := namesAfter(fold(7, "m1", "m3", "m4")); !equal(grown, "m1", "m3", "m4") {
		t.Fatalf("after a third register: %v", grown)
	}
	if !equal(first, "m1", "m2") {
		t.Fatalf("a list already handed out was rewritten: %v", first)
	}
	vec := lang.NewProgram().MeasureVector(lang.FieldRTT).WaitRtts(1).Report().MustBuild()
	if err := flow.Install(vec); err != nil {
		t.Fatal(err)
	}
	if got := flow.reportNames(); !equal(got, "pkt.rtt") {
		t.Fatalf("after a change of mode: %v", got)
	}
	if err := flow.Install(vec); err != nil {
		t.Fatal(err)
	}
	if got := flow.reportNames(); !equal(got, "pkt.rtt") || flow.names == nil {
		t.Fatalf("same vector fields again: %v (cached %v)", got, flow.names)
	}

	// A refused Install rolls the program back, and the names with it.
	back := namesAfter(fold(0, "m1", "m2"))
	if err := flow.Install(fold(0, "x1", "x2")); err != nil {
		t.Fatal(err)
	}
	refused := cap.msgs[len(cap.msgs)-1].(*proto.Install).Seq
	a.HandleMessage(&proto.InstallErr{SID: 1, Seq: refused, Reason: "no"}, cap.send)
	if got := flow.reportNames(); !equal(got, "m1", "m2") {
		t.Fatalf("after a rollback: %v, was %v", got, back)
	}
}

func TestAgentVectorDispatch(t *testing.T) {
	alg := &recordAlg{}
	alg.onInit = func(f *Flow) {
		p := lang.NewProgram().MeasureVector(lang.FieldRTT, lang.FieldAcked).
			WaitRtts(1).Report().MustBuild()
		f.Install(p)
	}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.HandleMessage(&proto.Vector{SID: 1, Seq: 1, NumFields: 2,
		Data: []float64{0.01, 1448, 0.02, 1448}}, cap.send)
	m := alg.measures[0]
	if len(m.Samples) != 2 {
		t.Fatalf("samples=%d", len(m.Samples))
	}
	if m.Samples[1].Get(lang.FieldRTT) != 0.02 {
		t.Fatalf("rtt=%v", m.Samples[1].Get(lang.FieldRTT))
	}
	if m.Samples[0].Get(lang.FieldAcked) != 1448 {
		t.Fatalf("acked=%v", m.Samples[0].Get(lang.FieldAcked))
	}
	if m.Samples[0].Get(lang.FieldECN) != 0 {
		t.Fatal("absent field should read 0")
	}
}

func TestAgentUrgentDispatch(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.HandleMessage(&proto.Urgent{SID: 1, Kind: proto.UrgentDupAck, Value: 1448}, cap.send)
	if len(alg.urgents) != 1 || alg.urgents[0].Kind != proto.UrgentDupAck || alg.urgents[0].Value != 1448 {
		t.Fatalf("urgents=%+v", alg.urgents)
	}
}

func TestAgentCloseReleases(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.HandleMessage(&proto.Close{SID: 1}, cap.send)
	if alg.releases != 1 {
		t.Fatalf("releases=%d", alg.releases)
	}
	if a.FlowCount() != 0 {
		t.Fatal("flow not removed")
	}
	// Messages for closed flows are counted, not crashed on.
	a.HandleMessage(&proto.Urgent{SID: 1, Kind: proto.UrgentECN}, cap.send)
	if a.Stats().UnknownFlowMsg != 1 {
		t.Fatalf("stats=%+v", a.Stats())
	}
}

func TestAgentUnknownAlgFallsBack(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	msg := createMsg(1)
	msg.Alg = "who-knows"
	a.HandleMessage(msg, cap.send)
	if alg.inits != 1 {
		t.Fatal("default algorithm not used")
	}
	if a.Stats().UnknownAlgReq != 1 {
		t.Fatalf("stats=%+v", a.Stats())
	}
}

func TestAgentRequiresRegisteredDefault(t *testing.T) {
	if _, err := NewAgent(AgentConfig{Registry: NewRegistry(), DefaultAlg: "ghost"}); err == nil {
		t.Fatal("unregistered default accepted")
	}
	if _, err := NewAgent(AgentConfig{DefaultAlg: "x"}); err == nil {
		t.Fatal("nil registry accepted")
	}
}

func TestPolicyClampsDirectControls(t *testing.T) {
	alg := &recordAlg{}
	policy := func(info FlowInfo) Policy {
		return Policy{MaxRateBps: 1000, MaxCwndBytes: 5000}
	}
	a := newTestAgent(t, alg, policy)
	cap := &capture{}
	alg.onInit = func(f *Flow) {
		f.SetRate(99999)
		f.SetCwnd(99999)
	}
	a.HandleMessage(createMsg(1), cap.send)
	var rate *proto.SetRate
	var cwnd *proto.SetCwnd
	for _, m := range cap.msgs {
		switch v := m.(type) {
		case *proto.SetRate:
			rate = v
		case *proto.SetCwnd:
			cwnd = v
		}
	}
	if rate == nil || rate.Bps != 1000 {
		t.Fatalf("rate=%+v", rate)
	}
	if cwnd == nil || cwnd.Bytes != 5000 {
		t.Fatalf("cwnd=%+v", cwnd)
	}
}

func TestPolicyRewritesPrograms(t *testing.T) {
	alg := &recordAlg{}
	policy := func(info FlowInfo) Policy { return Policy{MaxRateBps: 1e6} }
	a := newTestAgent(t, alg, policy)
	cap := &capture{}
	alg.onInit = func(f *Flow) {
		p := lang.NewProgram().Rate(lang.Mul(lang.C(2), lang.V("rate"))).
			WaitRtts(1).Report().MustBuild()
		if err := f.Install(p); err != nil {
			t.Errorf("install: %v", err)
		}
	}
	a.HandleMessage(createMsg(1), cap.send)
	var inst *proto.Install
	for _, m := range cap.msgs {
		if v, ok := m.(*proto.Install); ok {
			inst = v
		}
	}
	if inst == nil {
		t.Fatal("no install sent")
	}
	p, err := lang.UnmarshalProgram(inst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	sr := p.Instrs[0].(lang.SetRate)
	// The rewritten expression must clamp: with rate=1e9, result is 1e6.
	got, err := lang.Eval(sr.E, func(n string) (float64, bool) {
		if n == "rate" {
			return 1e9, true
		}
		return 0, false
	})
	if err != nil || got != 1e6 {
		t.Fatalf("clamped rate=%v err=%v", got, err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate registration")
		}
	}()
	reg := NewRegistry()
	reg.Register("x", func() Alg { return &recordAlg{} })
	reg.Register("x", func() Alg { return &recordAlg{} })
}

func TestRegistryNames(t *testing.T) {
	// Sorted regardless of registration order, so listings are stable.
	reg := NewRegistry()
	reg.Register("b", func() Alg { return &recordAlg{} })
	reg.Register("a", func() Alg { return &recordAlg{} })
	names := reg.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names=%v (want sorted order)", names)
	}
}

func TestDescribeCapturesPrograms(t *testing.T) {
	factory := func() Alg {
		a := &recordAlg{}
		a.onInit = func(f *Flow) {
			p := lang.NewProgram().Rate(lang.C(100)).WaitRtts(1).Report().MustBuild()
			f.Install(p)
			f.SetCwnd(5000)
		}
		return a
	}
	progs, direct := Describe(factory, 1448)
	if len(progs) != 1 {
		t.Fatalf("progs=%d", len(progs))
	}
	if len(direct) != 1 || direct[0] != "cwnd" {
		t.Fatalf("direct=%v", direct)
	}
}

func TestFlowStampsControlSequence(t *testing.T) {
	// Install, SetCwnd, and SetRate share one ascending sequence space so
	// the datapath can discard reordered copies of superseded decisions.
	cap := &capture{}
	f := &Flow{Info: FlowInfo{SID: 1, MSS: 1448}, send: cap.send, shared: new(flowShared)}
	if err := f.Install(lang.NewProgram().Cwnd(lang.C(10000)).WaitRtts(1).MustBuild()); err != nil {
		t.Fatal(err)
	}
	f.SetCwnd(5000)
	f.SetRate(1e6)
	want := []uint32{1, 2, 3}
	for i, m := range cap.msgs {
		var got uint32
		switch v := m.(type) {
		case *proto.Install:
			got = v.Seq
		case *proto.SetCwnd:
			got = v.Seq
		case *proto.SetRate:
			got = v.Seq
		}
		if got != want[i] {
			t.Fatalf("msg %d (%T) seq=%d want %d", i, m, got, want[i])
		}
	}
}

func TestFlowSequenceResumesFromCreate(t *testing.T) {
	// A resync Create carries the datapath's newest applied sequence; the
	// (possibly restarted) agent must number its decisions above it, or
	// everything it sends would look stale.
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	c := createMsg(1)
	c.Seq = 1042
	a.HandleMessage(c, cap.send)
	st := a.flows[1]
	st.flow.SetCwnd(5000)
	sc := cap.msgs[len(cap.msgs)-1].(*proto.SetCwnd)
	if sc.Seq != 1043 {
		t.Fatalf("seq=%d, want 1043 (resume above Create's 1042)", sc.Seq)
	}
}

func TestNextSeqSkipsZeroOnWrap(t *testing.T) {
	f := &Flow{ctrlSeq: ^uint32(0) - 1}
	if s := f.nextSeq(); s != ^uint32(0) {
		t.Fatalf("seq=%d", s)
	}
	if s := f.nextSeq(); s != 1 {
		t.Fatalf("seq after wrap=%d, want 1 (0 is reserved for unsequenced)", s)
	}
}

func TestStaleSeqWraparound(t *testing.T) {
	last := ^uint32(0)
	if staleSeq(1, &last) {
		t.Fatal("wrapped seq 1 treated as stale after 2^32-1")
	}
	if last != 1 {
		t.Fatalf("last=%d after wrap, want 1", last)
	}
	if !staleSeq(^uint32(0), &last) {
		t.Fatal("replayed pre-wrap seq accepted after the wrap")
	}
	if staleSeq(0, &last) || last != 1 {
		t.Fatal("seq 0 must stay unsequenced and always fresh")
	}
}

func TestAgentReportsSurviveSeqWraparound(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.flows[1].lastReportSeq = ^uint32(0) - 1
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: ^uint32(0), Fields: []float64{1}}, cap.send)
	// The datapath skips 0 on wrap, so the next report arrives as seq 1; it
	// must be accepted or the flow's telemetry blackholes at the rollover.
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{2}}, cap.send)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 2, Fields: []float64{3}}, cap.send)
	if len(alg.measures) != 3 {
		t.Fatalf("alg saw %d reports across the wrap, want 3", len(alg.measures))
	}
	if st := a.Stats(); st.StaleReports != 0 {
		t.Fatalf("stats=%+v, want no stale drops", st)
	}
}

func TestAgentDedupsUrgents(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.HandleMessage(&proto.Urgent{SID: 1, Seq: 1, Kind: proto.UrgentDupAck, Value: 1448}, cap.send)
	a.HandleMessage(&proto.Urgent{SID: 1, Seq: 1, Kind: proto.UrgentDupAck, Value: 1448}, cap.send) // duplicate
	a.HandleMessage(&proto.Urgent{SID: 1, Seq: 2, Kind: proto.UrgentTimeout, Value: 0}, cap.send)
	a.HandleMessage(&proto.Urgent{SID: 1, Seq: 1, Kind: proto.UrgentDupAck, Value: 1448}, cap.send) // reordered
	if len(alg.urgents) != 2 {
		t.Fatalf("alg saw %d urgents, want 2", len(alg.urgents))
	}
	st := a.Stats()
	if st.Urgents != 2 || st.DupUrgents != 2 {
		t.Fatalf("stats=%+v", st)
	}
	// Unsequenced urgents always pass (pre-protocol datapaths).
	a.HandleMessage(&proto.Urgent{SID: 1, Kind: proto.UrgentDupAck, Value: 1}, cap.send)
	if len(alg.urgents) != 3 {
		t.Fatal("unsequenced urgent dropped")
	}
}

func TestAgentDropsStaleReports(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 2, Fields: []float64{1}}, cap.send)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{2}}, cap.send) // reordered
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 2, Fields: []float64{1}}, cap.send) // duplicate
	a.HandleMessage(&proto.Vector{SID: 1, Seq: 2, NumFields: 1, Data: []float64{3}}, cap.send)
	if len(alg.measures) != 1 {
		t.Fatalf("alg saw %d reports, want 1", len(alg.measures))
	}
	st := a.Stats()
	if st.Measurements != 1 || st.StaleReports != 3 {
		t.Fatalf("stats=%+v", st)
	}
	// A newer vector still lands (shared report sequence space).
	a.HandleMessage(&proto.Vector{SID: 1, Seq: 3, NumFields: 0, Data: nil}, cap.send)
	if a.Stats().Vectors != 1 {
		t.Fatalf("stats=%+v", a.Stats())
	}
}

func TestAgentDedupsCreates(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	c := createMsg(1)
	c.Seq = 7
	a.HandleMessage(c, cap.send)
	a.HandleMessage(c, cap.send) // duplicated delivery: same announcement
	if alg.inits != 1 || alg.releases != 0 {
		t.Fatalf("duplicate Create rebuilt the flow: inits=%d releases=%d", alg.inits, alg.releases)
	}
	if a.Stats().DupCreates != 1 {
		t.Fatalf("stats=%+v", a.Stats())
	}
	// A Create with a different Seq is a genuine resync: rebuild.
	c2 := createMsg(1)
	c2.Seq = 9
	a.HandleMessage(c2, cap.send)
	if alg.inits != 2 || alg.releases != 1 {
		t.Fatalf("resync Create ignored: inits=%d releases=%d", alg.inits, alg.releases)
	}
	// Unsequenced Creates always rebuild (pre-protocol behaviour).
	a.HandleMessage(createMsg(1), cap.send)
	a.HandleMessage(createMsg(1), cap.send)
	if alg.inits != 4 {
		t.Fatalf("inits=%d", alg.inits)
	}
}

func TestAgentSurfacesInstallErr(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)

	var flow *Flow
	a.mu.Lock()
	flow = a.flows[1].flow
	a.mu.Unlock()

	first := lang.NewProgram().Cwnd(lang.C(20000)).WaitRtts(1).Report().MustBuild()
	second := lang.NewProgram().Cwnd(lang.C(30000)).WaitRtts(1).Report().MustBuild()
	if err := flow.Install(first); err != nil {
		t.Fatal(err)
	}
	if err := flow.Install(second); err != nil {
		t.Fatal(err)
	}
	refusedSeq := cap.msgs[len(cap.msgs)-1].(*proto.Install).Seq

	// The datapath refuses the second install: the agent must count it, keep
	// the diagnostic, and roll its program view back to the first program —
	// the one actually still live in the datapath.
	a.HandleMessage(&proto.InstallErr{SID: 1, Seq: refusedSeq, Reason: "bounds: instr 0"}, cap.send)
	if a.Stats().InstallErrs != 1 {
		t.Fatalf("InstallErrs=%d", a.Stats().InstallErrs)
	}
	if flow.installErrs != 1 || flow.lastInstallErr != "bounds: instr 0" {
		t.Fatalf("flow refusal state: n=%d reason=%q", flow.installErrs, flow.lastInstallErr)
	}
	got := float64(flow.Installed().Instrs[0].(lang.SetCwnd).E.(lang.Const))
	if got != 20000 {
		t.Fatalf("installed view not rolled back: cwnd const = %v", got)
	}

	// A refusal of an already-superseded install counts but must not roll back.
	a.HandleMessage(&proto.InstallErr{SID: 1, Seq: refusedSeq - 1, Reason: "stale"}, cap.send)
	if float64(flow.Installed().Instrs[0].(lang.SetCwnd).E.(lang.Const)) != 20000 {
		t.Fatal("stale refusal moved the installed view")
	}

	// Refusals for unknown flows are counted as unknown-flow noise.
	a.HandleMessage(&proto.InstallErr{SID: 99, Reason: "x"}, cap.send)
	if a.Stats().UnknownFlowMsg == 0 {
		t.Fatal("unknown-flow InstallErr not counted")
	}
}

// installs returns the Installs among the captured messages.
func (c *capture) installs() []*proto.Install {
	var out []*proto.Install
	for _, m := range c.msgs {
		if v, ok := m.(*proto.Install); ok {
			out = append(out, v)
		}
	}
	return out
}

func refFold(init float64) *lang.FoldSpec {
	return &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "acked", Init: init}},
		Updates: []lang.Assign{{Dst: "acked", E: lang.Add(lang.V("acked"), lang.V("pkt.acked"))}},
	}
}

func refProg(fold *lang.FoldSpec, cwnd float64) *lang.Program {
	return lang.NewProgram().MeasureFold(fold).Cwnd(lang.C(cwnd)).WaitRtts(1).Report().MustBuild()
}

// grabFlow creates flow 1 on a fresh agent and returns it with what it sends.
func grabFlow(t *testing.T) (*Agent, *Flow, *capture) {
	t.Helper()
	a := newTestAgent(t, &recordAlg{}, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.mu.Lock()
	defer a.mu.Unlock()
	return a, a.flows[1].flow, cap
}

// TestFlowInstallsByReference: an Install whose measure half is byte for byte
// the last whole Install's crosses as a reference to that Install's Seq and
// the control half alone; anything else — a first Install, another fold, a
// moved Init, EWMA mode — crosses whole and becomes what later ones refer to.
// The flow keeps the whole program either way.
func TestFlowInstallsByReference(t *testing.T) {
	a, flow, cap := grabFlow(t)
	fold := refFold(0)
	vector := func(cwnd float64) *lang.Program {
		return lang.NewProgram().MeasureVector(lang.FieldRTT).Cwnd(lang.C(cwnd)).WaitRtts(1).Report().MustBuild()
	}
	ewma := func(cwnd float64) *lang.Program {
		return lang.NewProgram().Cwnd(lang.C(cwnd)).WaitRtts(1).Report().MustBuild()
	}
	steps := []struct {
		what  string
		p     *lang.Program
		byRef bool
	}{
		{"first install", refProg(fold, 10000), false},
		{"same fold, new window", refProg(fold, 20000), true},
		{"same fold built afresh", refProg(refFold(0), 30000), true},
		{"moved Init", refProg(refFold(0.5), 30000), false},
		{"the moved fold again", refProg(refFold(0.5), 40000), true},
		{"vector mode", vector(10000), false},
		{"vector mode again", vector(20000), true},
		{"EWMA mode", ewma(10000), false},
		{"EWMA mode again", ewma(20000), false},
		{"back to the fold", refProg(fold, 50000), false},
		{"and again", refProg(fold, 60000), true},
	}
	var wholeSeq uint32
	byRef := 0
	for _, st := range steps {
		if err := flow.Install(st.p); err != nil {
			t.Fatalf("%s: %v", st.what, err)
		}
		msgs := cap.installs()
		sent := msgs[len(msgs)-1]
		want, err := lang.MarshalProgram(st.p)
		if err != nil {
			t.Fatal(err)
		}
		if string(flow.progBytes) != string(want) || flow.Installed() != st.p {
			t.Fatalf("%s: the flow keeps % x, want the whole program % x", st.what, flow.progBytes, want)
		}
		if lang.IsRef(sent.Prog) != st.byRef {
			t.Fatalf("%s: sent by reference: %v, want %v (% x)", st.what, !st.byRef, st.byRef, sent.Prog)
		}
		if !st.byRef {
			if string(sent.Prog) != string(want) {
				t.Fatalf("%s: sent % x, want % x", st.what, sent.Prog, want)
			}
			wholeSeq = sent.Seq
			continue
		}
		byRef++
		m, n, err := lang.UnmarshalMeasure(sent.Prog)
		if err != nil || m.Mode != lang.MeasureRef || m.Epoch != wholeSeq {
			t.Fatalf("%s: reference decodes to %+v (%v), want epoch %d", st.what, m, err, wholeSeq)
		}
		end, err := lang.MeasurePrefixLen(want)
		if err != nil || string(sent.Prog[n:]) != string(want[end:]) {
			t.Fatalf("%s: control half sent % x, the program's % x", st.what, sent.Prog[n:], want[end:])
		}
	}
	if got := a.Stats(); got.InstallsByRef != byRef || got.RefResends != 0 {
		t.Fatalf("agent counted %d installs by reference and %d re-sends, want %d and 0", got.InstallsByRef, got.RefResends, byRef)
	}

	// The reference form is the flow's to choose, never the caller's.
	ref := &lang.Program{Measure: lang.MeasureSpec{Mode: lang.MeasureRef, Epoch: wholeSeq}, Instrs: []lang.Instr{lang.Report{}}}
	if err := flow.Install(ref); err == nil {
		t.Fatal("Flow.Install accepted a program in by-reference form")
	}
}

// TestFlowRefusedReference: what an InstallErr does depends on which Install
// it refuses. A refused reference makes the flow send its newest program
// whole at once, after which the refusals of the other references sent
// meanwhile change nothing; a refused whole Install rolls back if it is the
// newest, and is never referred to again.
func TestFlowRefusedReference(t *testing.T) {
	a, flow, cap := grabFlow(t)
	fold := refFold(0)
	progs := []*lang.Program{refProg(fold, 10000), refProg(fold, 20000), refProg(fold, 30000)}
	for _, p := range progs {
		if err := flow.Install(p); err != nil {
			t.Fatal(err)
		}
	}
	sent := cap.installs()
	whole, ref1, ref2 := sent[0], sent[1], sent[2]
	if lang.IsRef(whole.Prog) || !lang.IsRef(ref1.Prog) || !lang.IsRef(ref2.Prog) {
		t.Fatal("want one whole Install and two references")
	}
	refuse := func(seq uint32) { a.HandleMessage(&proto.InstallErr{SID: 1, Seq: seq, Reason: "no"}, cap.send) }

	// The whole Install never arrived: the datapath refuses the first reference.
	refuse(ref1.Seq)
	sent = cap.installs()
	if len(sent) != 4 {
		t.Fatalf("a refused reference drew %d further installs, want 1", len(sent)-3)
	}
	again := sent[3]
	newest, _ := lang.MarshalProgram(progs[2])
	if string(again.Prog) != string(newest) || !proto.SeqNewer(again.Seq, ref2.Seq) {
		t.Fatalf("re-sent seq %d % x, want the newest program whole under a fresh Seq", again.Seq, again.Prog)
	}
	if flow.Installed() != progs[2] || a.Stats().RefResends != 1 {
		t.Fatalf("after the re-send the flow holds %s, %d re-sends counted", flow.Installed(), a.Stats().RefResends)
	}
	// The second reference's refusal, and a duplicate of the first's, are history.
	refuse(ref2.Seq)
	refuse(ref1.Seq)
	refuse(again.Seq + 100) // and one for an Install never sent is noise
	if got := cap.installs(); len(got) != 4 || flow.Installed() != progs[2] {
		t.Fatalf("superseded refusals drew %d installs, flow holds %s", len(got)-4, flow.Installed())
	}
	// Later installs refer to the re-sent one.
	if err := flow.Install(refProg(fold, 40000)); err != nil {
		t.Fatal(err)
	}
	sent = cap.installs()
	if m, _, err := lang.UnmarshalMeasure(sent[4].Prog); err != nil || m.Epoch != again.Seq {
		t.Fatalf("the install after a re-send names %+v (%v), want epoch %d", m, err, again.Seq)
	}

	// A refused whole Install that is the newest rolls back, and nothing
	// refers to it afterwards.
	moved := refProg(refFold(0.5), 40000)
	if err := flow.Install(moved); err != nil {
		t.Fatal(err)
	}
	before := flow.prevInstalled
	sent = cap.installs()
	refuse(sent[len(sent)-1].Seq)
	if flow.Installed() != before || len(cap.installs()) != len(sent) {
		t.Fatalf("refused whole install: flow holds %s, %d installs drawn", flow.Installed(), len(cap.installs())-len(sent))
	}
	if err := flow.Install(refProg(refFold(0.5), 50000)); err != nil {
		t.Fatal(err)
	}
	sent = cap.installs()
	if lang.IsRef(sent[len(sent)-1].Prog) {
		t.Fatal("an install referred to one the datapath refused")
	}
	if got := a.Stats(); got.InstallErrs != 5 || got.RefResends != 1 {
		t.Fatalf("agent counted %d install errors and %d re-sends, want 5 and 1", got.InstallErrs, got.RefResends)
	}
}

// TestRestoredFlowKnowsNoEpoch: snapshots always carry the whole program, a
// snapshot carrying a reference is refused, and a flow rebuilt from one
// installs whole first — what Init sent before the datapath was adopted went
// nowhere, and what the failed agent installed is not this flow's to name.
func TestRestoredFlowKnowsNoEpoch(t *testing.T) {
	fold := refFold(0)
	alg := &recordAlg{onInit: func(f *Flow) { f.Install(refProg(fold, 10000)) }}
	primary := newTestAgent(t, alg, nil)
	cap := &capture{}
	primary.HandleMessage(createMsg(1), cap.send)
	primary.mu.Lock()
	flow := primary.flows[1].flow
	primary.mu.Unlock()
	if err := flow.Install(refProg(fold, 20000)); err != nil {
		t.Fatal(err)
	}
	if sent := cap.installs(); len(sent) != 2 || !lang.IsRef(sent[1].Prog) {
		t.Fatalf("want a whole install and a reference, got %d installs", len(sent))
	}
	var snap *proto.Snapshot
	if _, err := primary.SnapshotInto(true, func(s *proto.Snapshot) error {
		snap = proto.Clone(s).(*proto.Snapshot)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p, err := lang.UnmarshalProgram(snap.Prog); err != nil || p.Measure.Mode != lang.MeasureFold {
		t.Fatalf("snapshot carries %v (%v), want the whole fold program", p, err)
	}

	standby := newTestAgent(t, alg, nil)
	bad := *snap
	bad.Prog = lang.AppendRef(nil, 1, []byte{1, 0x14, 0})
	if err := standby.RestoreFlow(&bad); err == nil {
		t.Fatal("RestoreFlow accepted a snapshot carrying a reference")
	}
	if err := standby.RestoreFlow(snap); err != nil {
		t.Fatal(err)
	}
	// The datapath's first report binds the channel; the install it draws
	// crosses whole even though the measure half is the one Init installed.
	after := &capture{}
	standby.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{0}}, after.send)
	standby.mu.Lock()
	restored := standby.flows[1].flow
	standby.mu.Unlock()
	if err := restored.Install(refProg(fold, 30000)); err != nil {
		t.Fatal(err)
	}
	if err := restored.Install(refProg(fold, 40000)); err != nil {
		t.Fatal(err)
	}
	sent := after.installs()
	if len(sent) != 2 || lang.IsRef(sent[0].Prog) || !lang.IsRef(sent[1].Prog) {
		t.Fatalf("restored flow sent %d installs; want the first whole, the second by reference", len(sent))
	}
}
