package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
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

// copyMsg deep-copies m by the codec round trip.
func copyMsg(m proto.Msg) proto.Msg {
	b, err := proto.Marshal(m)
	if err == nil {
		m, err = proto.Unmarshal(b)
	}
	if err != nil {
		panic(err)
	}
	return m
}

func (c *capture) send(frame []byte) error {
	m, err := proto.Unmarshal(bytes.Clone(frame)) // frame is the agent's, for this call
	if err != nil {
		return err
	}
	c.msgs = append(c.msgs, m)
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
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Epoch: cap.epoch(), Fields: []float64{7, 9}}, cap.send)
	m := alg.measures[0]
	if v, _ := m.Get("m1"); v != 7 {
		t.Fatalf("m1=%v", v)
	}
	if v, _ := m.Get("m2"); v != 9 {
		t.Fatalf("m2=%v", v)
	}
}

// TestFlowKeepsReportNamesWhileTheyHold: an algorithm that installs per report
// sends the same register names every time, so the name list its reports are
// named by survives those Installs — the same slice, not an equal one — and
// is replaced the moment a name, the register count or the mode changes. A
// layout the agent has made before comes back as the same list, a list
// handed out is never rewritten, and a report that crosses an Install of
// another fold is named by the fold its epoch names, not the newest.
func TestFlowKeepsReportNamesWhileTheyHold(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	flow := a.flows[1].flow

	fold := func(init float64, names ...string) *lang.Program {
		f := &lang.FoldSpec{}
		for _, n := range names {
			f.Regs = append(f.Regs, lang.RegDef{Name: n, Init: init})
		}
		f.Updates = []lang.Assign{{Dst: names[0], E: lang.Add(lang.V(names[0]), lang.V("pkt.acked"))}}
		return lang.NewProgram().MeasureFold(f).WaitRtts(1).Report().MustBuild()
	}
	install := func(p *lang.Program) {
		t.Helper()
		if err := flow.Install(p); err != nil {
			t.Fatal(err)
		}
	}
	seq := uint32(0)
	report := func(epoch uint32, values int) []string {
		t.Helper()
		seq++
		a.HandleMessage(&proto.Measurement{SID: 1, Seq: seq, Epoch: epoch, Fields: []float64{1, 2, 3}[:values]}, cap.send)
		if n := int(a.Stats().Measurements); n != len(alg.measures) || n != int(seq) {
			t.Fatalf("report %d (epoch %d) did not reach the algorithm: %+v", seq, epoch, a.Stats())
		}
		return alg.measures[len(alg.measures)-1].Names
	}
	namesAfter := func(p *lang.Program) []string {
		t.Helper()
		install(p)
		return report(cap.epoch(), len(p.RegNames()))
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
	install(vec)
	kept := flow.newest().layout
	if got := kept.names; !equal(got, "pkt.rtt") {
		t.Fatalf("after a change of mode: %v", got)
	}
	install(vec)
	if got := flow.newest().layout; got != kept {
		t.Fatalf("same vector fields again: %v, layout kept: %v", got.names, got == kept)
	}

	back := namesAfter(fold(0, "m1", "m2"))
	if !same(first, back) {
		t.Fatal("a layout the agent had made before was made again")
	}
	// An Install of another fold goes out; a report the fold in force sent
	// before it landed arrives after it, and then one of the new fold.
	inForce := cap.epoch()
	install(fold(0, "x1", "x2", "x3"))
	if got := report(inForce, 2); !same(first, got) {
		t.Fatalf("a report that crossed an Install reads %v, want %v", got, first)
	}
	if got := report(cap.epoch(), 3); !equal(got, "x1", "x2", "x3") {
		t.Fatalf("the new fold's report reads %v", got)
	}
}

// TestLayoutFollowsRollbackAndRestore: a flow's reports are named by the
// program their epoch names, in both modes whose layout a program sets.
// After the datapath refuses a whole Install of another layout, naming the
// program it keeps and its epoch, the next report, of that epoch, is named by
// that program, and a snapshot carries the program and its epoch; a flow
// restored from it names its first report by the snapshot's program, not by
// the one its algorithm's Init installed, and by the datapath's default
// program when the snapshot carries none.
func TestLayoutFollowsRollbackAndRestore(t *testing.T) {
	fold := func(names ...string) *lang.Program {
		f := &lang.FoldSpec{}
		for _, n := range names {
			f.Regs = append(f.Regs, lang.RegDef{Name: n})
		}
		f.Updates = []lang.Assign{{Dst: names[0], E: lang.Add(lang.V(names[0]), lang.V("pkt.acked"))}}
		return lang.NewProgram().MeasureFold(f).WaitRtts(1).Report().MustBuild()
	}
	vector := func(fields ...lang.Field) *lang.Program {
		return lang.NewProgram().MeasureVector(fields...).WaitRtts(1).Report().MustBuild()
	}
	for _, c := range []struct {
		mode        string
		live, other *lang.Program
		values      []float64                // a report of live's
		named       func(m Measurement) bool // by live's layout
	}{
		{"fold", fold("a1", "a2"), fold("b1"), []float64{7, 9},
			func(m Measurement) bool {
				a1, _ := m.Get("a1")
				a2, _ := m.Get("a2")
				return slices.Equal(m.Names, []string{"a1", "a2"}) && a1 == 7 && a2 == 9
			}},
		{"vector", vector(lang.FieldRTT, lang.FieldAcked), vector(lang.FieldECN), []float64{0.01, 1448},
			func(m Measurement) bool {
				return slices.Equal(m.Names, []string{"pkt.rtt", "pkt.acked"}) && len(m.Samples) == 1 &&
					m.Samples[0].Get(lang.FieldRTT) == 0.01 && m.Samples[0].Get(lang.FieldAcked) == 1448
			}},
	} {
		t.Run(c.mode, func(t *testing.T) {
			alg := &recordAlg{}
			primary := newTestAgent(t, alg, nil)
			cap := &capture{}
			primary.HandleMessage(createMsg(1), cap.send)
			flow := primary.flows[1].flow
			report := func(a *Agent, seq, epoch uint32) {
				a.HandleMessage(&proto.Measurement{SID: 1, Seq: seq, Epoch: epoch, Fields: c.values}, cap.send)
			}
			if err := flow.Install(c.live); err != nil {
				t.Fatal(err)
			}
			live := cap.epoch()
			report(primary, 1, live)
			if err := flow.Install(c.other); err != nil {
				t.Fatal(err)
			}
			sent := cap.installs()
			if len(sent) != 2 || lang.IsRef(sent[1].Prog) {
				t.Fatalf("want two whole Installs, got %d", len(sent))
			}
			liveProg, err := lang.MarshalProgram(c.live)
			if err != nil {
				t.Fatal(err)
			}
			// The refusal names the program the datapath kept, and its epoch.
			primary.HandleMessage(&proto.InstallErr{SID: 1, Seq: sent[1].Seq, Epoch: live, Reason: "no", Prog: liveProg}, cap.send)
			report(primary, 2, live)
			if len(alg.measures) != 2 || !c.named(alg.measures[1]) {
				t.Fatalf("after a refused whole Install the report reads %+v", alg.measures)
			}

			// A snapshot taken right after the refusal is of the program the
			// datapath runs, under its epoch.
			var snap *proto.Snapshot
			if _, err := primary.SnapshotInto(true, func(s *proto.Snapshot) error {
				snap = copyMsg(s).(*proto.Snapshot)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if snap.Epoch != live || string(snap.Prog) != string(liveProg) {
				t.Fatalf("the snapshot carries epoch %d and %d program bytes, want epoch %d and the live program", snap.Epoch, len(snap.Prog), live)
			}
			restoredAlg := &recordAlg{onInit: func(f *Flow) { f.Install(c.other) }}
			standby := newTestAgent(t, restoredAlg, nil)
			if err := standby.RestoreFlow(snap); err != nil {
				t.Fatal(err)
			}
			report(standby, 3, live)
			if len(restoredAlg.measures) != 1 || !c.named(restoredAlg.measures[0]) {
				t.Fatalf("a restored flow's first report reads %+v", restoredAlg.measures)
			}
			bare := *snap
			bare.SID, bare.Prog, bare.Epoch = 2, nil, 0
			if err := standby.RestoreFlow(&bare); err != nil {
				t.Fatal(err)
			}
			standby.HandleMessage(&proto.Measurement{SID: 2, Seq: 4, Fields: make([]float64, 7)}, cap.send)
			if m := restoredAlg.measures[1]; !slices.Equal(m.Names, lang.EWMAReportNames()) {
				t.Fatalf("a flow restored with no program reads %v", m.Names)
			}
			if st := standby.Stats(); st.UnknownEpochs != 0 || st.Errors != 0 {
				t.Fatalf("standby: %+v", st)
			}
		})
	}
}

// TestAgentVectorDispatch: a vector-mode report is a Measurement whose values
// are rows as wide as the field list of the program its epoch names. A report
// whose values are not whole rows, or a scalar report whose count is not its
// layout's, is counted in Errors and never reaches the algorithm.
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
	// A default-program report that crossed the Install, short of the EWMA
	// fields, is misshapen.
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Epoch: 0, Fields: []float64{0.01, 1448}}, cap.send)
	epoch := cap.epoch()
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 2, Epoch: epoch,
		Fields: []float64{0.01, 1448, 0.02, 1448}}, cap.send)
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
	// No rows is a report too; a ragged one is not.
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 3, Epoch: epoch}, cap.send)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 4, Epoch: epoch, Fields: []float64{0.01, 1448, 0.02}}, cap.send)
	if st := a.Stats(); len(alg.measures) != 2 || len(alg.measures[1].Samples) != 0 ||
		st.Vectors != 2 || st.Measurements != 0 || st.Errors != 2 || st.UnknownEpochs != 0 {
		t.Fatalf("after an empty and two misshapen reports the algorithm saw %d; %+v", len(alg.measures), st)
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
	// everything it sends would look stale — and ctrlSeqSkip above it, past
	// whatever an earlier incarnation still had in flight when the Create
	// went up.
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	c := createMsg(1)
	c.Seq = 1042
	a.HandleMessage(c, cap.send)
	st := a.flows[1]
	st.flow.SetCwnd(5000)
	sc := cap.msgs[len(cap.msgs)-1].(*proto.SetCwnd)
	if want := uint32(1042 + ctrlSeqSkip + 1); sc.Seq != want {
		t.Fatalf("seq=%d, want %d (ctrlSeqSkip above Create's 1042)", sc.Seq, want)
	}
}

func TestAgentReportsSurviveSeqWraparound(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	a.flows[1].lastReportSeq = ^uint32(0) - 1
	ewma := make([]float64, 7)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: ^uint32(0), Fields: ewma}, cap.send)
	// The datapath skips 0 on wrap, so the next report arrives as seq 1; it
	// must be accepted or the flow's telemetry blackholes at the rollover.
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Fields: ewma}, cap.send)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 2, Fields: ewma}, cap.send)
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
	ewma := make([]float64, 7)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 2, Fields: ewma}, cap.send)
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Fields: ewma}, cap.send) // reordered
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 2, Fields: ewma}, cap.send) // duplicate
	if len(alg.measures) != 1 {
		t.Fatalf("alg saw %d reports, want 1", len(alg.measures))
	}
	st := a.Stats()
	if st.Measurements != 1 || st.StaleReports != 2 {
		t.Fatalf("stats=%+v", st)
	}
	// A newer report of another program still lands: one report sequence
	// space, whatever the mode.
	if err := a.flows[1].flow.Install(lang.NewProgram().MeasureVector(lang.FieldRTT).WaitRtts(1).Report().MustBuild()); err != nil {
		t.Fatal(err)
	}
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 3, Epoch: cap.epoch(), Fields: []float64{0.01}}, cap.send)
	if a.Stats().Vectors != 1 {
		t.Fatalf("stats=%+v", a.Stats())
	}
}

// TestResyncRecoversAReportCursorMovedAhead: a report whose Seq a corrupting
// channel moved far ahead of the datapath's moves the flow's report cursor
// past every report the datapath will send for a long while, and those are
// discarded as stale. Nothing but a rebuild moves the cursor back: the
// datapath's resync Create, with a Seq the flow was not made from, makes the
// flow again, and its next report reaches the algorithm.
func TestResyncRecoversAReportCursorMovedAhead(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	a.HandleMessage(createMsg(1), cap.send)
	report := func(seq uint32) {
		a.HandleMessage(&proto.Measurement{SID: 1, Seq: seq, Fields: make([]float64, 7)}, cap.send)
	}
	report(1)
	report(1<<30 + 1) // Seq 1 with a flipped bit
	for seq := uint32(2); seq < 6; seq++ {
		report(seq)
	}
	if st := a.Stats(); len(alg.measures) != 2 || st.StaleReports != 4 {
		t.Fatalf("after the cursor moved ahead: the algorithm heard %d reports; %+v", len(alg.measures), st)
	}
	resync := createMsg(1)
	resync.Seq = 7 // the newest control sequence the datapath applied
	a.HandleMessage(resync, cap.send)
	report(6)
	if st := a.Stats(); alg.inits != 2 || len(alg.measures) != 3 || st.StaleReports != 4 || st.UnknownEpochs != 0 {
		t.Fatalf("after the resync: %d inits, the algorithm heard %d reports; %+v", alg.inits, len(alg.measures), st)
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
	flow := a.flows[1].flow

	ewma := func(cwnd float64) *lang.Program {
		return lang.NewProgram().Cwnd(lang.C(cwnd)).WaitRtts(1).Report().MustBuild()
	}
	for _, cwnd := range []float64{20000, 30000} {
		if err := flow.Install(ewma(cwnd)); err != nil {
			t.Fatal(err)
		}
	}
	firstSeq, refusedSeq := cap.installs()[0].Seq, cap.installs()[1].Seq
	firstProg, err := lang.MarshalProgram(ewma(20000))
	if err != nil {
		t.Fatal(err)
	}
	refusal := &proto.InstallErr{SID: 1, Seq: refusedSeq, Epoch: firstSeq, Reason: "bounds: instr 0", Prog: firstProg}

	// The datapath refuses the second install and names the first, which it
	// keeps running: the agent must count the refusal, log the diagnostic,
	// and take the first program back under its epoch, which its snapshots
	// now carry. The first program's reports are named by it; nothing is sent
	// again.
	var logged string
	a.cfg.Logf = func(format string, args ...any) { logged = fmt.Sprintf(format, args...) }
	a.HandleMessage(refusal, cap.send)
	if a.Stats().InstallErrs != 1 || !strings.Contains(logged, "bounds: instr 0") {
		t.Fatalf("InstallErrs=%d, logged %q", a.Stats().InstallErrs, logged)
	}
	cwnd := func() float64 { return float64(flow.Installed().Instrs[0].(lang.SetCwnd).E.(lang.Const)) }
	if got := cwnd(); got != 20000 || flow.newest().last != firstSeq {
		t.Fatalf("installed view not the datapath's: cwnd const = %v, newest epoch %d", got, flow.newest().last)
	}
	a.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Epoch: firstSeq, Fields: make([]float64, 7)}, cap.send)
	if len(alg.measures) != 1 || !slices.Equal(alg.measures[0].Names, lang.EWMAReportNames()) {
		t.Fatalf("the running program's report after the refusal: %+v", alg.measures)
	}

	// A duplicate of the refusal changes nothing, and once a later whole
	// Install has superseded the refused one, it only counts.
	sent := len(cap.msgs)
	a.HandleMessage(refusal, cap.send)
	if a.Stats().InstallErrs != 2 || len(cap.msgs) != sent || cwnd() != 20000 {
		t.Fatalf("a duplicate refusal drew %d messages or moved the installed view (%v): %+v", len(cap.msgs)-sent, cwnd(), a.Stats())
	}
	if err := flow.Install(ewma(40000)); err != nil {
		t.Fatal(err)
	}
	a.HandleMessage(refusal, cap.send)
	if a.Stats().InstallErrs != 3 || len(cap.msgs) != sent+1 || cwnd() != 40000 {
		t.Fatalf("a stale refusal drew %d messages or moved the installed view (%v): %+v", len(cap.msgs)-sent-1, cwnd(), a.Stats())
	}

	// A refusal that names no whole program, or one laid out otherwise than
	// the run of its epoch, counts in Errors and changes nothing.
	newest := cap.installs()[2].Seq
	if err := flow.Install(ewma(50000)); err != nil {
		t.Fatal(err)
	}
	vector, err := lang.MarshalProgram(lang.NewProgram().MeasureVector(lang.FieldRTT).WaitRtts(1).Report().MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for i, prog := range [][]byte{vector, {0xCC, 2}, lang.AppendRef(nil, newest, []byte{1, 0x14, 0})} {
		a.HandleMessage(&proto.InstallErr{SID: 1, Seq: newest + 1, Epoch: newest, Reason: "no", Prog: prog}, cap.send)
		if st := a.Stats(); st.Errors != int64(i+1) || len(cap.msgs) != sent+2 || cwnd() != 50000 || flow.newest().last != newest+1 {
			t.Fatalf("refusal %d naming % x: %d messages drawn, cwnd const %v, newest epoch %d; %+v",
				i, prog, len(cap.msgs)-sent-2, cwnd(), flow.newest().last, st)
		}
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

// epoch is the Seq of the newest whole Install among the captured messages:
// the epoch its program's reports carry.
func (c *capture) epoch() uint32 {
	var e uint32
	for _, m := range c.installs() {
		if !lang.IsRef(m.Prog) {
			e = m.Seq
		}
	}
	return e
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
	var byRef int64
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
		if string(flow.progBytes) != string(want) {
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
// it refuses and which epoch the datapath says it runs. A reference refused
// at another epoch than the one it named makes the flow send its newest
// program whole at once, after which the refusals of the other references
// sent meanwhile change nothing. A refused whole Install that is the newest,
// and a reference refused at the epoch it named, were refused for the
// program: the flow takes the one the refusal names, draws nothing, and
// refers to neither again.
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
	marshal := func(p *lang.Program) []byte {
		b, err := lang.MarshalProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// refuse answers seq as a datapath running prog as epoch would.
	refuse := func(seq, epoch uint32, prog []byte) {
		a.HandleMessage(&proto.InstallErr{SID: 1, Seq: seq, Epoch: epoch, Reason: "no", Prog: prog}, cap.send)
	}
	defaultProg := marshal(lang.NewProgram().MeasureEWMA().WaitRtts(1).Report().MustBuild())

	// The whole Install never arrived: the datapath, still on its default
	// program, refuses the first reference.
	refuse(ref1.Seq, 0, defaultProg)
	sent = cap.installs()
	if len(sent) != 4 {
		t.Fatalf("a refused reference drew %d further installs, want 1", len(sent)-3)
	}
	again := sent[3]
	newest := marshal(progs[2])
	if string(again.Prog) != string(newest) || !proto.SeqNewer(again.Seq, ref2.Seq) {
		t.Fatalf("re-sent seq %d % x, want the newest program whole under a fresh Seq", again.Seq, again.Prog)
	}
	if string(flow.progBytes) != string(newest) || a.Stats().RefResends != 1 {
		t.Fatalf("after the re-send the flow holds %s, %d re-sends counted", flow.Installed(), a.Stats().RefResends)
	}
	// The second reference's refusal, and a duplicate of the first's, are history.
	refuse(ref2.Seq, 0, defaultProg)
	refuse(ref1.Seq, 0, defaultProg)
	refuse(again.Seq+100, 0, defaultProg) // and one for an Install never sent is noise
	if got := cap.installs(); len(got) != 4 || string(flow.progBytes) != string(newest) {
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

	// A refused whole Install that is the newest: the flow takes the program
	// the datapath kept, the re-sent fold under the reference's control half,
	// draws nothing, and nothing refers to the refused one afterwards.
	kept := marshal(refProg(fold, 40000))
	if err := flow.Install(refProg(refFold(0.5), 40000)); err != nil {
		t.Fatal(err)
	}
	sent = cap.installs()
	refuse(sent[len(sent)-1].Seq, again.Seq, kept)
	if string(flow.progBytes) != string(kept) || flow.newest().last != again.Seq || len(cap.installs()) != len(sent) {
		t.Fatalf("refused whole install: flow holds %s at epoch %d, %d installs drawn", flow.Installed(), flow.newest().last, len(cap.installs())-len(sent))
	}
	if err := flow.Install(refProg(refFold(0.5), 50000)); err != nil {
		t.Fatal(err)
	}
	sent = cap.installs()
	moved := sent[len(sent)-1]
	if lang.IsRef(moved.Prog) {
		t.Fatal("an install referred to one the datapath refused")
	}

	// A reference refused at the epoch it named: its control half was at
	// fault. The flow takes the program the refusal names instead of sending
	// its own again, and its next Install goes whole.
	if err := flow.Install(refProg(refFold(0.5), 60000)); err != nil {
		t.Fatal(err)
	}
	sent = cap.installs()
	if !lang.IsRef(sent[len(sent)-1].Prog) {
		t.Fatal("want a reference to the moved fold")
	}
	kept = marshal(refProg(refFold(0.5), 50000))
	refuse(sent[len(sent)-1].Seq, moved.Seq, kept)
	if string(flow.progBytes) != string(kept) || len(cap.installs()) != len(sent) {
		t.Fatalf("a reference refused at its own epoch: flow holds %s, %d installs drawn", flow.Installed(), len(cap.installs())-len(sent))
	}
	if err := flow.Install(refProg(refFold(0.5), 70000)); err != nil {
		t.Fatal(err)
	}
	if sent = cap.installs(); lang.IsRef(sent[len(sent)-1].Prog) {
		t.Fatal("the install after a refusal went by reference")
	}
	if got := a.Stats(); got.InstallErrs != 6 || got.RefResends != 1 || got.Errors != 0 {
		t.Fatalf("agent counted %d install errors, %d re-sends and %d errors, want 6, 1 and 0", got.InstallErrs, got.RefResends, got.Errors)
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
	flow := primary.flows[1].flow
	if err := flow.Install(refProg(fold, 20000)); err != nil {
		t.Fatal(err)
	}
	if sent := cap.installs(); len(sent) != 2 || !lang.IsRef(sent[1].Prog) {
		t.Fatalf("want a whole install and a reference, got %d installs", len(sent))
	}
	var snap *proto.Snapshot
	if _, err := primary.SnapshotInto(true, func(s *proto.Snapshot) error {
		snap = copyMsg(s).(*proto.Snapshot)
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
	standby.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Epoch: snap.Epoch, Fields: []float64{0}}, after.send)
	restored := standby.flows[1].flow
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

// TestStandbyBehindItsDatapathResends: a standby restored from a snapshot
// taken one whole Install before the primary's last — of another fold — gets
// a report of an epoch it cannot name. It drops that report, once, counts
// it, sends the snapshot's program again, whole, under a fresh Seq, and
// names the next report, of the epoch that resend becomes, by that program.
func TestStandbyBehindItsDatapathResends(t *testing.T) {
	fold := func(names ...string) *lang.Program {
		f := &lang.FoldSpec{}
		for _, n := range names {
			f.Regs = append(f.Regs, lang.RegDef{Name: n})
		}
		f.Updates = []lang.Assign{{Dst: names[0], E: lang.Add(lang.V(names[0]), lang.V("pkt.acked"))}}
		return lang.NewProgram().MeasureFold(f).WaitRtts(1).Report().MustBuild()
	}
	a, b := fold("a1", "a2"), fold("b1")
	primary := newTestAgent(t, &recordAlg{onInit: func(f *Flow) { f.Install(a) }}, nil)
	cap := &capture{}
	primary.HandleMessage(createMsg(1), cap.send)
	var snap *proto.Snapshot
	if _, err := primary.SnapshotInto(true, func(s *proto.Snapshot) error {
		snap = copyMsg(s).(*proto.Snapshot)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := primary.flows[1].flow.Install(b); err != nil {
		t.Fatal(err)
	}
	behind := cap.epoch() // the datapath applies b, then the primary dies

	alg := &recordAlg{}
	standby := newTestAgent(t, alg, nil)
	if err := standby.RestoreFlow(snap); err != nil {
		t.Fatal(err)
	}
	after := &capture{}
	standby.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Epoch: behind, Fields: []float64{5}}, after.send)
	sent := after.installs()
	whole, _ := lang.MarshalProgram(a)
	if st := standby.Stats(); len(alg.measures) != 0 || st.UnknownEpochs != 1 || st.Measurements != 0 ||
		len(sent) != 1 || string(sent[0].Prog) != string(whole) || !proto.SeqNewer(sent[0].Seq, snap.CtrlSeq+ctrlSeqSkip) {
		t.Fatalf("a report of an epoch the standby cannot name: algorithm saw %d, %d installs sent; %+v",
			len(alg.measures), len(sent), st)
	}
	standby.HandleMessage(&proto.Measurement{SID: 1, Seq: 2, Epoch: sent[0].Seq, Fields: []float64{7, 9}}, after.send)
	if len(alg.measures) != 1 || !slices.Equal(alg.measures[0].Names, []string{"a1", "a2"}) {
		t.Fatalf("the report after the resend reads %+v", alg.measures)
	}
	if st := standby.Stats(); st.UnknownEpochs != 1 || st.RefResends != 0 || len(after.installs()) != 1 {
		t.Fatalf("after the resend: %d installs; %+v", len(after.installs()), st)
	}
}

// TestEveryWayAFlowIsMade walks one agent through every message that makes,
// replaces, keeps or removes a flow, and checks after each step what the
// algorithms saw (Init and Release calls), the flow table, the counters, and
// where the step's flow numbers its next decision from.
func TestEveryWayAFlowIsMade(t *testing.T) {
	alg := &recordAlg{}
	a := newTestAgent(t, alg, nil)
	cap := &capture{}
	create := func(sid, seq uint32) func() error {
		return func() error {
			c := createMsg(sid)
			c.Seq = seq
			a.HandleMessage(c, cap.send)
			return nil
		}
	}
	restore := func(snap proto.Snapshot) func() error {
		return func() error { return a.RestoreFlow(&snap) }
	}
	snap := func(sid uint32, name string, ctrlSeq uint32) proto.Snapshot {
		return proto.Snapshot{SID: sid, MSS: 1448, InitCwnd: 14480, CtrlSeq: ctrlSeq,
			CreateSeq: 3, SrcAddr: "a", DstAddr: "b", Alg: name}
	}
	badProg := snap(1, "record", 70)
	badProg.Prog = []byte{0xff, 0xff, 0xff}

	type counts struct {
		inits, releases, flows                             int
		created, closed, restores, unknownAlg, dups, adopt int64
	}
	steps := []struct {
		name    string
		do      func() error
		wantErr bool
		sid     uint32
		ctrlSeq uint32 // the step's flow's newest control sequence; 0: gone, or fresh
		want    counts
	}{
		{"create", create(1, 5), false, 1, 5 + ctrlSeqSkip,
			counts{inits: 1, flows: 1, created: 1}},
		{"duplicate create", create(1, 5), false, 1, 5 + ctrlSeqSkip,
			counts{inits: 1, flows: 1, created: 1, dups: 1}},
		{"resync create over a live flow", create(1, 9), false, 1, 9 + ctrlSeqSkip,
			counts{inits: 2, releases: 1, flows: 1, created: 2, dups: 1}},
		{"restore", restore(snap(2, "record", 40)), false, 2, 40 + ctrlSeqSkip,
			counts{inits: 3, releases: 1, flows: 2, created: 2, restores: 1, dups: 1}},
		{"restore over a live flow", restore(snap(1, "record", 60)), false, 1, 60 + ctrlSeqSkip,
			counts{inits: 4, releases: 2, flows: 2, created: 2, restores: 2, dups: 1}},
		{"restore naming an unregistered algorithm", restore(snap(3, "ghost", 0)), false, 3, ctrlSeqSkip,
			counts{inits: 5, releases: 2, flows: 3, created: 2, restores: 3, unknownAlg: 1, dups: 1}},
		{"bad-program snapshot", restore(badProg), true, 1, 60 + ctrlSeqSkip,
			counts{inits: 5, releases: 2, flows: 3, created: 2, restores: 3, unknownAlg: 1, dups: 1}},
		{"resync create over a restored flow", create(1, 11), false, 1, 60 + ctrlSeqSkip,
			counts{inits: 5, releases: 2, flows: 3, created: 2, restores: 3, unknownAlg: 1, dups: 1, adopt: 1}},
		{"tombstone", restore(proto.Snapshot{SID: 2, Closed: true}), false, 2, 0,
			counts{inits: 5, releases: 3, flows: 2, created: 2, restores: 3, unknownAlg: 1, dups: 1, adopt: 1}},
		{"close", func() error { a.HandleMessage(&proto.Close{SID: 1}, cap.send); return nil }, false, 1, 0,
			counts{inits: 5, releases: 4, flows: 1, created: 2, closed: 1, restores: 3, unknownAlg: 1, dups: 1, adopt: 1}},
		{"create from a fresh datapath", create(4, 0), false, 4, 0,
			counts{inits: 6, releases: 4, flows: 2, created: 3, closed: 1, restores: 3, unknownAlg: 1, dups: 1, adopt: 1}},
		{"resync create past wraparound", create(5, 0xFFFF_FFF0), false, 5, ctrlSeqSkip - 0x10,
			counts{inits: 7, releases: 4, flows: 3, created: 4, closed: 1, restores: 3, unknownAlg: 1, dups: 1, adopt: 1}},
		{"restore past wraparound", restore(snap(6, "record", 0xFFFF_FFF0)), false, 6, ctrlSeqSkip - 0x10,
			counts{inits: 8, releases: 4, flows: 4, created: 4, closed: 1, restores: 4, unknownAlg: 1, dups: 1, adopt: 1}},
	}
	for _, s := range steps {
		if err := s.do(); (err != nil) != s.wantErr {
			t.Fatalf("%s: err = %v, want an error: %v", s.name, err, s.wantErr)
		}
		st := a.Stats()
		got := counts{
			inits: alg.inits, releases: alg.releases, flows: a.FlowCount(),
			created: st.FlowsCreated, closed: st.FlowsClosed, restores: st.Restores,
			unknownAlg: st.UnknownAlgReq, dups: st.DupCreates, adopt: st.ResyncAdopts,
		}
		if got != s.want {
			t.Fatalf("%s:\n got %+v\nwant %+v", s.name, got, s.want)
		}
		var ctrlSeq uint32
		if fs, ok := a.flows[s.sid]; ok {
			ctrlSeq = fs.flow.ctrlSeq
		}
		if ctrlSeq != s.ctrlSeq {
			t.Fatalf("%s: flow %d numbers from %d, want %d", s.name, s.sid, ctrlSeq, s.ctrlSeq)
		}
	}
}
