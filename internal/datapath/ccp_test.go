package datapath_test

import (
	"strings"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// rig is a single CCP-controlled flow with the agent side stubbed: sent
// messages are captured, and Deliver is called directly by the test.
type rig struct {
	sim  *netsim.Sim
	dp   *datapath.CCP
	flow *tcp.Flow
	path *netsim.Path
	sent []proto.Msg
}

func newRig(t *testing.T, link netsim.LinkConfig, opts tcp.Options, cfg datapath.Config) *rig {
	t.Helper()
	r := &rig{sim: netsim.New(1)}
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	r.path = netsim.NewPath(r.sim, netsim.PathConfig{Bottleneck: link}, fwd, rev)
	cfg.SID = 1
	cfg.Clock = r.sim
	cfg.ToAgent = func(m proto.Msg) error {
		// ToAgent only borrows m (the runtime reuses its report scratch), so
		// the capture log must deep-copy.
		r.sent = append(r.sent, proto.Clone(m))
		return nil
	}
	r.dp = datapath.New(cfg)
	r.flow = tcp.NewFlow(r.sim, 1, r.path, fwd, rev, r.dp, opts)
	return r
}

func (r *rig) countMsgs(ty proto.MsgType) int {
	n := 0
	for _, m := range r.sent {
		if m.Type() == ty {
			n++
		}
	}
	return n
}

func (r *rig) lastMeasurement() *proto.Measurement {
	for i := len(r.sent) - 1; i >= 0; i-- {
		if m, ok := r.sent[i].(*proto.Measurement); ok {
			return m
		}
	}
	return nil
}

func link8() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20}
}

func TestInitAnnouncesFlow(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{Alg: "cubic"})
	r.flow.Conn.Start()
	if r.countMsgs(proto.TypeCreate) != 1 {
		t.Fatal("no Create sent")
	}
	c := r.sent[0].(*proto.Create)
	if c.Alg != "cubic" || c.MSS != 1448 || c.InitCwnd != 14480 {
		t.Fatalf("create=%+v", c)
	}
}

func TestDefaultProgramReportsPerRTT(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.sim.Run(time.Second)
	// RTT ≈ 10-12 ms → expect roughly 100 reports in 1 s (loosely 50-200;
	// the first report waits on the conservative 100 ms default RTT).
	n := r.countMsgs(proto.TypeMeasurement)
	if n < 50 || n > 200 {
		t.Fatalf("reports=%d, want ~100", n)
	}
	m := r.lastMeasurement()
	if len(m.Fields) != len(lang.EWMAReportNames()) {
		t.Fatalf("fields=%d", len(m.Fields))
	}
	// rtt field ≈ 10-13 ms in seconds.
	if rtt := m.Fields[0]; rtt < 0.009 || rtt > 0.02 {
		t.Fatalf("ewma rtt=%v", rtt)
	}
	// acked per RTT ≈ cwnd; must be positive.
	if m.Fields[3] <= 0 {
		t.Fatalf("acked=%v", m.Fields[3])
	}
}

func install(t *testing.T, r *rig, p *lang.Program) {
	t.Helper()
	data, err := lang.MarshalProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	before := r.dp.Stats().InstallsRecvd
	r.dp.Deliver(&proto.Install{SID: 1, Prog: data})
	if r.dp.Stats().InstallsRecvd != before+1 {
		reason := "(no InstallErr reply captured)"
		for i := len(r.sent) - 1; i >= 0; i-- {
			if e, ok := r.sent[i].(*proto.InstallErr); ok {
				reason = e.Reason
				break
			}
		}
		t.Fatalf("install rejected: %s", reason)
	}
}

func TestFoldProgramReportsRegisters(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	fold := &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "acks", Init: 0}, {Name: "bytes", Init: 0}},
		Updates: []lang.Assign{
			{Dst: "acks", E: lang.Add(lang.V("acks"), lang.C(1))},
			{Dst: "bytes", E: lang.Add(lang.V("bytes"), lang.V("pkt.acked"))},
		},
	}
	install(t, r, lang.NewProgram().MeasureFold(fold).WaitRtts(1).Report().MustBuild())
	r.sim.Run(time.Second)
	m := r.lastMeasurement()
	if m == nil || len(m.Fields) != 2 {
		t.Fatalf("measurement=%+v", m)
	}
	if m.Fields[0] <= 0 || m.Fields[1] <= 0 {
		t.Fatalf("fold fields=%v", m.Fields)
	}
	// Registers reset after each report: acks per report ≈ acks per RTT,
	// not cumulative. Over 1s at ~10ms RTT, cumulative would be >500.
	if m.Fields[0] > 100 {
		t.Fatalf("register did not reset: acks=%v", m.Fields[0])
	}
	if r.dp.Stats().InstallsRecvd != 1 {
		t.Fatalf("installs=%d", r.dp.Stats().InstallsRecvd)
	}
}

func TestVectorProgramShipsRows(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	install(t, r, lang.NewProgram().
		MeasureVector(lang.FieldRTT, lang.FieldAcked).
		WaitRtts(1).Report().MustBuild())
	r.sim.Run(time.Second)
	var vec *proto.Vector
	for i := len(r.sent) - 1; i >= 0; i-- {
		if v, ok := r.sent[i].(*proto.Vector); ok {
			vec = v
			break
		}
	}
	if vec == nil {
		t.Fatal("no vector sent")
	}
	if vec.NumFields != 2 || vec.Rows() == 0 {
		t.Fatalf("vector=%dx%d", vec.Rows(), vec.NumFields)
	}
	row := vec.Row(0)
	if row[0] < 0.009 || row[0] > 0.05 {
		t.Fatalf("row rtt=%v", row[0])
	}
	if row[1] <= 0 {
		t.Fatalf("row acked=%v", row[1])
	}
}

func TestVectorCapDropsExcess(t *testing.T) {
	// About 690 ACKs a second arrive over link8: a 20 s wait samples more
	// rows than one report may hold.
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	install(t, r, lang.NewProgram().
		MeasureVector(lang.FieldRTT).
		Wait(20).Report().MustBuild())
	r.sim.Run(21 * time.Second)
	if r.dp.Stats().VectorDropped == 0 {
		t.Fatal("cap not enforced")
	}
	for _, m := range r.sent {
		if v, ok := m.(*proto.Vector); ok && v.Rows() > datapath.MaxVectorRows {
			t.Fatalf("vector exceeded cap: %d rows", v.Rows())
		}
	}
}

func TestControlProgramSetsRateAndCwnd(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	install(t, r, lang.NewProgram().
		Rate(lang.C(50000)).
		Cwnd(lang.C(30000)).
		WaitRtts(1).Report().MustBuild())
	r.sim.Run(100 * time.Millisecond)
	if got := r.flow.Conn.PacingRate(); got != 50000 {
		t.Fatalf("rate=%v", got)
	}
	if got := r.flow.Conn.Cwnd(); got != 30000 {
		t.Fatalf("cwnd=%v", got)
	}
}

func TestBBRPulseProgramSequencing(t *testing.T) {
	// The §2.1 pulse program must produce the 1.25r / 0.75r / r pattern in
	// the datapath without agent involvement.
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.sim.Run(300 * time.Millisecond) // establish srtt
	base := 100000.0
	install(t, r, lang.NewProgram().
		Rate(lang.Mul(lang.C(1.25), lang.C(base))).WaitRtts(1).Report().
		Rate(lang.Mul(lang.C(0.75), lang.C(base))).WaitRtts(1).Report().
		Rate(lang.C(base)).WaitRtts(6).Report().
		MustBuild())

	// Sample the pacing rate on a fine grid and collect distinct plateaus.
	seen := map[float64]bool{}
	for i := 0; i < 400; i++ {
		r.sim.Run(300*time.Millisecond + time.Duration(i)*time.Millisecond)
		seen[r.flow.Conn.PacingRate()] = true
	}
	for _, want := range []float64{125000, 75000, 100000} {
		if !seen[want] {
			t.Fatalf("pulse rate %v never observed; saw %v", want, seen)
		}
	}
}

func TestUrgentLossEvents(t *testing.T) {
	link := netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 8 * 1500}
	r := newRig(t, link, tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	// Default program holds initial cwnd; force overflow with a big cwnd.
	install(t, r, lang.NewProgram().Cwnd(lang.C(80*1448)).WaitRtts(1).Report().MustBuild())
	r.sim.Run(3 * time.Second)
	if r.countMsgs(proto.TypeUrgent) == 0 {
		t.Fatal("no urgent messages despite forced drops")
	}
	found := false
	for _, m := range r.sent {
		if u, ok := m.(*proto.Urgent); ok && u.Kind == proto.UrgentDupAck && u.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no dupack urgent with lost bytes")
	}
}

func TestECNUrgentOnlyWhenRequested(t *testing.T) {
	link := netsim.LinkConfig{
		RateBps: 8e6, Delay: 5 * time.Millisecond,
		QueueBytes: 1 << 20, ECNThresholdBytes: 3000,
	}
	countECN := func(urgent bool) int {
		r := newRig(t, link, tcp.Options{ECN: true}, datapath.Config{})
		r.flow.Conn.Start()
		b := lang.NewProgram().Cwnd(lang.C(40 * 1448)).WaitRtts(1).Report()
		if urgent {
			b.UrgentECN()
		}
		install(t, r, b.MustBuild())
		r.sim.Run(2 * time.Second)
		n := 0
		for _, m := range r.sent {
			if u, ok := m.(*proto.Urgent); ok && u.Kind == proto.UrgentECN {
				n++
			}
		}
		return n
	}
	if n := countECN(false); n != 0 {
		t.Fatalf("batched mode sent %d ECN urgents", n)
	}
	if n := countECN(true); n == 0 {
		t.Fatal("urgent mode sent no ECN urgents")
	}
}

func TestMalformedInstallIgnored(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	install(t, r, lang.NewProgram().Cwnd(lang.C(20000)).WaitRtts(1).Report().MustBuild())
	r.sim.Run(50 * time.Millisecond)
	r.dp.Deliver(&proto.Install{SID: 1, Prog: []byte{0xDE, 0xAD, 0xBE, 0xEF}})
	r.sim.Run(100 * time.Millisecond)
	// The previous program must still be in force.
	if got := r.flow.Conn.Cwnd(); got != 20000 {
		t.Fatalf("cwnd=%d after malformed install", got)
	}
	if r.dp.Stats().InstallsRecvd != 1 {
		t.Fatalf("installs=%d", r.dp.Stats().InstallsRecvd)
	}
}

func TestVerifierRejectsUnsafeInstall(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	install(t, r, lang.NewProgram().Cwnd(lang.C(20000)).WaitRtts(1).Report().MustBuild())
	r.sim.Run(50 * time.Millisecond)

	// pkt.rtt may be zero on a retransmission echo, so this divide is unsafe
	// and the verifier must refuse it at install time.
	unsafe := lang.NewProgram().
		Rate(lang.Div(lang.C(1e6), lang.V("pkt.rtt"))).
		WaitRtts(1).
		Report().
		MustBuild()
	data, err := lang.MarshalProgram(unsafe)
	if err != nil {
		t.Fatal(err)
	}
	r.dp.Deliver(&proto.Install{SID: 1, Seq: 9, Prog: data})
	r.sim.Run(100 * time.Millisecond)

	st := r.dp.Stats()
	if st.InstallsRecvd != 1 || st.InstallRejects != 1 {
		t.Fatalf("installs=%d rejects=%d", st.InstallsRecvd, st.InstallRejects)
	}
	// The agent was told why, with the refused message's sequence number.
	var ie *proto.InstallErr
	for _, m := range r.sent {
		if e, ok := m.(*proto.InstallErr); ok {
			ie = e
		}
	}
	if ie == nil {
		t.Fatal("no InstallErr reply sent")
	}
	if ie.SID != 1 || ie.Seq != 9 {
		t.Fatalf("InstallErr=%+v", ie)
	}
	if !strings.Contains(ie.Reason, "div-zero") {
		t.Fatalf("reason=%q, want div-zero diagnostic", ie.Reason)
	}
	// Fail-safe: the previous program keeps controlling the flow.
	if got := r.flow.Conn.Cwnd(); got != 20000 {
		t.Fatalf("cwnd=%d after rejected install", got)
	}
}

func TestProgramWithoutWaitDoesNotSpin(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	install(t, r, lang.NewProgram().Cwnd(lang.V("cwnd")).Report().MustBuild())
	r.sim.Run(500 * time.Millisecond)
	// Implicit one-RTT pacing: reports bounded (not thousands).
	if n := r.countMsgs(proto.TypeMeasurement); n > 120 {
		t.Fatalf("unwaited program reported %d times in 500ms", n)
	}
}

func TestDirectSetCwndSetRate(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Bytes: 7240})
	r.dp.Deliver(&proto.SetRate{SID: 1, Bps: 123456})
	if r.flow.Conn.Cwnd() != 7240 || r.flow.Conn.PacingRate() != 123456 {
		t.Fatalf("cwnd=%d rate=%v", r.flow.Conn.Cwnd(), r.flow.Conn.PacingRate())
	}
	st := r.dp.Stats()
	if st.SetCwndRecvd != 1 || st.SetRateRecvd != 1 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestFallbackOnAgentSilence(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(500*time.Millisecond))
	r.flow.Conn.Start()
	// Agent never sends anything: once the 500ms budget is spent the
	// datapath must take over.
	r.sim.Run(500 * time.Millisecond)
	if r.dp.FallbackActive() {
		t.Fatal("fallback active inside the budget")
	}
	r.sim.Run(2 * time.Second)
	if !r.dp.FallbackActive() {
		t.Fatal("fallback not active despite agent silence")
	}
	if st := r.dp.Stats(); st.FallbackOn != 1 || st.LivenessStale != 1 {
		t.Fatalf("stats=%+v, want one activation, by staleness", st)
	}
	// The fallback NewReno keeps the flow moving.
	pre := r.flow.Receiver.Delivered()
	r.sim.Run(4 * time.Second)
	if r.flow.Receiver.Delivered() <= pre {
		t.Fatal("no progress under fallback")
	}
	// Agent returns: fallback deactivates, through the handoff ramp. The
	// decision is below the window NewReno grew, and a decrease is not ramped.
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Bytes: 20000})
	if r.dp.FallbackActive() {
		t.Fatal("fallback still active after agent message")
	}
	if st := r.dp.Stats(); st.FallbackOff != 1 || st.HandoffRamps != 1 {
		t.Fatalf("stats=%+v, want one deactivation, ramped", st)
	}
	if got := r.flow.Conn.Cwnd(); got != 20000 {
		t.Fatalf("cwnd=%d after the agent's decision, want 20000", got)
	}
}

func TestNoFallbackWhenAgentAlive(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(500*time.Millisecond))
	r.flow.Conn.Start()
	// Simulate a live agent: poke every 200ms.
	var poke func()
	poke = func() {
		r.dp.Deliver(&proto.SetCwnd{SID: 1, Bytes: 20000})
		r.sim.Schedule(200*time.Millisecond, poke)
	}
	r.sim.Schedule(0, poke)
	r.sim.Run(3 * time.Second)
	if r.dp.FallbackActive() || r.dp.Stats().FallbackOn != 0 {
		t.Fatal("fallback engaged despite live agent")
	}
}

func TestCloseSendsClose(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.sim.Run(100 * time.Millisecond)
	r.flow.Conn.Stop()
	if r.countMsgs(proto.TypeClose) != 1 {
		t.Fatal("no Close sent")
	}
}

func TestSendErrorsCounted(t *testing.T) {
	sim := netsim.New(1)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: link8()}, fwd, rev)
	// ToAgent returning an error must be tolerated and counted.
	dp2 := datapath.New(datapath.Config{
		SID:     2,
		Clock:   sim,
		ToAgent: func(proto.Msg) error { return errSend },
	})
	f := tcp.NewFlow(sim, 2, path, fwd, rev, dp2, tcp.Options{})
	f.Conn.Start()
	sim.Run(500 * time.Millisecond)
	if dp2.Stats().SendErrors == 0 {
		t.Fatal("send errors not counted")
	}
	if f.Receiver.Delivered() == 0 {
		t.Fatal("flow stalled because agent channel failed")
	}
}

var errSend = errSentinel{}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

func TestReorderedCtrlNeverRegresses(t *testing.T) {
	// A duplicated/reordered channel can deliver an old decision after a
	// newer one; the sequence check must keep the newer window in force.
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 2, Bytes: 20000})
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 1, Bytes: 5000}) // stale reorder
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 2, Bytes: 5000}) // duplicate replay
	if got := r.flow.Conn.Cwnd(); got != 20000 {
		t.Fatalf("stale SetCwnd regressed window to %d", got)
	}
	st := r.dp.Stats()
	if st.SetCwndRecvd != 1 || st.StaleCtrlDropped != 2 {
		t.Fatalf("stats=%+v", st)
	}
	// Same sequence space covers SetRate and Install.
	r.dp.Deliver(&proto.SetRate{SID: 1, Seq: 1, Bps: 999})
	if r.flow.Conn.PacingRate() == 999 {
		t.Fatal("stale SetRate applied")
	}
	prev := r.dp.Program()
	data, err := lang.MarshalProgram(lang.NewProgram().Cwnd(lang.C(1448)).WaitRtts(1).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	r.dp.Deliver(&proto.Install{SID: 1, Seq: 2, Prog: data})
	if r.dp.Program() != prev {
		t.Fatal("stale Install replaced the program")
	}
	// A genuinely newer decision still lands.
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 3, Bytes: 30000})
	if r.flow.Conn.Cwnd() != 30000 {
		t.Fatal("fresh SetCwnd rejected")
	}
}

func TestUnsequencedCtrlAlwaysAccepted(t *testing.T) {
	// Seq 0 predates the sequence protocol; it must keep working.
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 5, Bytes: 20000})
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Bytes: 7240})
	if r.flow.Conn.Cwnd() != 7240 {
		t.Fatal("unsequenced SetCwnd dropped")
	}
	if r.dp.Stats().StaleCtrlDropped != 0 {
		t.Fatalf("stats=%+v", r.dp.Stats())
	}
}

func TestStaleCtrlIsNotLiveness(t *testing.T) {
	// Replayed stale messages must not hold the §5 watchdog off: only
	// applied decisions prove the agent is making progress.
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(500*time.Millisecond))
	r.flow.Conn.Start()
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 100, Bytes: 20000})
	stale := func() { r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 1, Bytes: 5000}) }
	for i := 1; i <= 19; i++ {
		r.sim.Schedule(time.Duration(i)*100*time.Millisecond, stale)
	}
	r.sim.Run(2 * time.Second)
	if !r.dp.FallbackActive() {
		t.Fatal("stale replays kept the watchdog at bay")
	}
}

func TestUrgentsCarrySequence(t *testing.T) {
	link := netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 8 * 1500}
	r := newRig(t, link, tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	install(t, r, lang.NewProgram().Cwnd(lang.C(80*1448)).WaitRtts(1).Report().MustBuild())
	r.sim.Run(3 * time.Second)
	var seqs []uint32
	for _, m := range r.sent {
		if u, ok := m.(*proto.Urgent); ok {
			seqs = append(seqs, u.Seq)
		}
	}
	if len(seqs) < 2 {
		t.Fatalf("want >=2 urgents, got %d", len(seqs))
	}
	for i, s := range seqs {
		if s != uint32(i+1) {
			t.Fatalf("urgent %d has seq %d, want %d", i, s, i+1)
		}
	}
}

func TestWatchdogResyncsWhileFallbackActive(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(500*time.Millisecond))
	r.flow.Conn.Start()
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 7, Bytes: 20000})
	r.sim.Run(2 * time.Second) // agent goes silent; fallback engages
	if !r.dp.FallbackActive() {
		t.Fatal("fallback not active")
	}
	creates := 0
	var last *proto.Create
	for _, m := range r.sent {
		if c, ok := m.(*proto.Create); ok {
			creates++
			last = c
		}
	}
	if creates < 2 {
		t.Fatalf("no resync Creates sent (creates=%d)", creates)
	}
	if last.Seq != 7 {
		t.Fatalf("resync Create carries seq %d, want 7 (newest applied)", last.Seq)
	}
	if int(last.InitCwnd) != r.flow.Conn.Cwnd() {
		t.Fatalf("resync Create carries cwnd %d, conn has %d", last.InitCwnd, r.flow.Conn.Cwnd())
	}
	if r.dp.Stats().Resyncs != creates-1 {
		t.Fatalf("stats=%+v creates=%d", r.dp.Stats(), creates)
	}
}

func TestFallbackRecoveryReinstallsProgram(t *testing.T) {
	// Crash recovery end state: after the agent returns and re-installs, the
	// CCP program is in force and the window is the agent's decision — no
	// native-fallback state bleeds into the CCP window.
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(500*time.Millisecond))
	r.flow.Conn.Start()
	r.sim.Run(3 * time.Second) // fallback engages; NewReno grows the window
	if !r.dp.FallbackActive() {
		t.Fatal("fallback not active")
	}
	prog := lang.NewProgram().Cwnd(lang.C(30000)).WaitRtts(1).Report().MustBuild()
	data, err := lang.MarshalProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	r.dp.Deliver(&proto.Install{SID: 1, Seq: 1, Prog: data})
	if r.dp.FallbackActive() {
		t.Fatal("fallback still active after re-install")
	}
	if st := r.dp.Stats(); st.FallbackOff != 1 || st.HandoffRamps != 1 || st.InstallsRecvd != 1 {
		t.Fatalf("stats=%+v", st)
	}
	// The re-installed program runs immediately and overwrites whatever
	// window the native fallback had grown to (from half the window at entry
	// to well past 30000 in 2.5s; the exit ramp smooths increases only).
	if got := r.flow.Conn.Cwnd(); got != 30000 {
		t.Fatalf("cwnd=%d after re-install, want the program's 30000", got)
	}
	// With the agent now responsive, the program stays in control on
	// subsequent ACK processing (keepalives reuse the program's window).
	seq := uint32(2)
	for i := 1; i <= 14; i++ {
		s := seq
		seq++
		r.sim.Schedule(time.Duration(i)*250*time.Millisecond,
			func() { r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: s, Bytes: 30000}) })
	}
	r.sim.Run(4 * time.Second)
	if r.dp.FallbackActive() {
		t.Fatal("fallback re-engaged despite live agent")
	}
	if got := r.flow.Conn.Cwnd(); got != 30000 {
		t.Fatalf("cwnd drifted to %d under the re-installed program", got)
	}
}

func TestUnexpectedMsgCounted(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.dp.Deliver(&proto.Create{SID: 1}) // agent→datapath Create is nonsense
	if r.dp.Stats().UnexpectedMsgs != 1 {
		t.Fatalf("stats=%+v", r.dp.Stats())
	}
}
