package harness_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/nativecc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/supervise"
	"github.com/ccp-repro/ccp/internal/tcp"
)

func link() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 20000}
}

func TestDefaultsApplied(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	f := net.AddCCPFlow(1, "", tcp.Options{}) // agent default (cubic)
	f.Conn.Start()
	net.Run(5 * time.Second)
	if net.Utilization(5*time.Second) < 0.6 {
		t.Fatalf("default deployment underperforms: %.3f", net.Utilization(5*time.Second))
	}
	if net.Agent.Stats().Agent.FlowsCreated != 1 {
		t.Fatal("flow not announced to agent")
	}
}

// Every deployment carries both fault layers, transparent until used: with
// no option set, the agent goes down and comes back through the agent
// injector, restarts as a fresh process, and the channel injector's
// counters read zero.
func TestPlainDeploymentHasBothFaultLayers(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	f := net.AddCCPFlowCfg(1, "cubic", tcp.Options{}, datapath.Config{
		StalenessBudget: 500 * time.Millisecond,
	})
	f.Conn.Start()
	net.Run(2 * time.Second)
	if st := net.ChannelInj.Stats(); st != (faults.Stats{}) {
		t.Fatalf("zero plan counted on the wire: %+v", st)
	}
	if net.AgentInj.Stats().Delivered == 0 {
		t.Fatal("healthy agent injector passed nothing through")
	}

	net.AgentInj.Kill()
	net.Run(4 * time.Second)
	if net.AgentInj.Stats().DroppedDead == 0 {
		t.Fatal("a killed agent received traffic")
	}
	if f.DP.Stats().FallbackOn == 0 {
		t.Fatal("datapath never fell back while the agent was dead")
	}
	net.AgentInj.Restart(net.Agent.HandleFrame)
	net.Run(6 * time.Second)
	if f.DP.FallbackActive() {
		t.Fatal("still in fallback after the same agent came back")
	}

	old := net.Agent
	net.RestartAgent()
	if net.Agent == old {
		t.Fatal("RestartAgent kept the old agent")
	}
	net.Run(9 * time.Second)
	if net.Agent.Stats().Agent.FlowsCreated == 0 {
		t.Fatal("the fresh agent never adopted the flow")
	}
}

func TestMixedNativeAndCCPFlows(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	ccp := net.AddCCPFlow(1, "cubic", tcp.Options{})
	nat := net.AddNativeFlow(2, nativecc.NewCubic(), tcp.Options{})
	ccp.Conn.Start()
	nat.Conn.Start()
	net.Run(10 * time.Second)
	if ccp.Receiver.Delivered() == 0 || nat.Receiver.Delivered() == 0 {
		t.Fatal("a flow starved")
	}
}

func TestStartStopAt(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	f := net.AddNativeFlow(1, cc.NewRenoCC(), tcp.Options{})
	net.StartAt(f, 2*time.Second)
	net.StopAt(f, 4*time.Second)
	net.Run(time.Second)
	if f.Conn.Stats().PktsSent != 0 {
		t.Fatal("flow sent before StartAt")
	}
	net.Run(6 * time.Second)
	sent := f.Conn.Stats().PktsSent
	if sent == 0 {
		t.Fatal("flow never started")
	}
	net.Run(8 * time.Second)
	if f.Conn.Stats().PktsSent != sent {
		t.Fatal("flow sent after StopAt")
	}
}

func TestSIDsAreUnique(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	net.AddCCPFlow(1, "reno", tcp.Options{})
	net.AddCCPFlow(2, "reno", tcp.Options{})
	f1 := net.AddCCPFlow(3, "reno", tcp.Options{})
	f1.Conn.Start()
	net.Run(time.Second)
	// Three creates with distinct SIDs: the agent tracks all of them even
	// though only one started (Create is sent at Start; only f1 started).
	if got := net.Agent.Stats().Agent.FlowsCreated; got != 1 {
		t.Fatalf("creates=%d, want 1 (only started flows announce)", got)
	}
}

func TestPolicyPlumbed(t *testing.T) {
	policy := func(info core.FlowInfo) core.Policy {
		return core.Policy{MaxRateBps: 100e3}
	}
	net := harness.New(harness.Config{Link: link(), Policy: policy})
	f := net.AddCCPFlow(1, "timely", tcp.Options{}) // rate-based algorithm
	f.Conn.Start()
	dur := 10 * time.Second
	net.Run(dur)
	goodput := float64(f.Receiver.Delivered()) / dur.Seconds()
	if goodput > 130e3 {
		t.Fatalf("policy cap ignored: %.0f B/s", goodput)
	}
}

// refusingAlg installs a safe fold program at Init and, on its first report,
// each of unsafe, programs the datapath's verifier refuses: an unbounded
// window. The agent sends them without looking, by reference to the fold
// before where the fold is the same, and then calls sent, if set.
type refusingAlg struct {
	flow    *core.Flow
	safe    *lang.Program
	unsafe  []*lang.Program
	sent    func()
	reports int
}

const refusingCwnd = 20 * 1448

// refusingFold is a one-register fold; the safe program's register is
// "acked", and a fold of another name is another measure half.
func refusingFold(reg string) *lang.FoldSpec {
	return &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: reg, Init: 0}},
		Updates: []lang.Assign{{Dst: reg, E: lang.Add(lang.V(reg), lang.V("pkt.acked"))}},
	}
}

// unsafeOver is a program over fold that multiplies the window by k.
func unsafeOver(fold *lang.FoldSpec, k float64) *lang.Program {
	return lang.NewProgram().MeasureFold(fold).Cwnd(lang.Mul(lang.V("cwnd"), lang.C(k))).WaitRtts(1).Report().MustBuild()
}

// newRefusingNet deploys alg as the agent's only algorithm, with the HA
// layer when ha is set, and starts one flow under it.
func newRefusingNet(alg *refusingAlg, ha bool) (*harness.Net, *harness.CCPFlow) {
	alg.safe = lang.NewProgram().MeasureFold(refusingFold("acked")).Cwnd(lang.C(refusingCwnd)).WaitRtts(1).Report().MustBuild()
	reg := core.NewRegistry()
	reg.Register("refusing", func() core.Alg { return alg })
	cfg := harness.Config{Link: link(), Registry: reg, DefaultAlg: "refusing"}
	if ha {
		cfg.HA = &supervise.Config{Interval: 5 * time.Millisecond, LatencyBudget: 100 * time.Millisecond, MissBudget: 3}
	}
	net := harness.New(cfg)
	f := net.AddCCPFlow(1, "", tcp.Options{})
	f.Conn.Start()
	return net, f
}

func (a *refusingAlg) Name() string { return "refusing" }

func (a *refusingAlg) Init(f *core.Flow) {
	a.flow = f
	if err := f.Install(a.safe); err != nil {
		panic(err)
	}
}

func (a *refusingAlg) OnMeasurement(f *core.Flow, m core.Measurement) {
	a.reports++
	if a.reports != 1 {
		return
	}
	for _, p := range a.unsafe {
		if err := f.Install(p); err != nil {
			panic(err)
		}
	}
	if a.sent != nil {
		a.sent()
	}
}

func (a *refusingAlg) OnUrgent(*core.Flow, core.UrgentEvent) {}

// TestUnsafeInstallRefusedAtTheDatapath: the datapath is the one gate. An
// unsafe program goes out from the agent unchecked, as a reference; the
// datapath refuses it, and its refusal names the safe program it keeps
// running, under the epoch the reference named. So the agent knows the
// program, not the reference, was at fault: it sends nothing again, and takes
// the safe program back, which keeps controlling the flow, and whose reports,
// named by their epoch, keep reaching the algorithm.
func TestUnsafeInstallRefusedAtTheDatapath(t *testing.T) {
	alg := &refusingAlg{unsafe: []*lang.Program{unsafeOver(refusingFold("acked"), 2)}}
	net, f := newRefusingNet(alg, false)
	net.Run(time.Second)

	dp, ag := f.DP.Stats(), net.Agent.Stats().Agent
	if alg.reports < 2 {
		t.Fatalf("%d reports reached the algorithm", alg.reports)
	}
	if ag.InstallsByRef != 1 || ag.RefResends != 0 || ag.InstallErrs != 1 {
		t.Fatalf("agent: %+v; want one Install by reference, its one refusal heard, nothing resent", ag)
	}
	if dp.InstallRejects != 1 || dp.RefRefusals != 0 || dp.InstallsRecvd != 1 {
		t.Fatalf("datapath: %+v; want the reference refused by the verifier, the safe program installed", dp)
	}
	if got, want := f.DP.Program().String(), alg.safe.String(); got != want {
		t.Fatalf("datapath runs %s, want %s", got, want)
	}
	if got := alg.flow.Installed(); got == nil || got.String() != alg.safe.String() {
		t.Fatalf("agent's view is %v, want the safe program back", got)
	}
	calls, reports := f.Conn.Stats().CwndSetCalls, alg.reports
	net.Run(2 * time.Second)
	if f.Conn.Stats().CwndSetCalls <= calls || f.Conn.Cwnd() != refusingCwnd {
		t.Fatalf("safe program stopped setting cwnd: %d calls before, %d after, cwnd %d",
			calls, f.Conn.Stats().CwndSetCalls, f.Conn.Cwnd())
	}
	if ag := net.Agent.Stats().Agent; alg.reports <= reports || ag.UnknownEpochs != 0 || ag.Errors != 0 {
		t.Fatalf("the safe program's reports: %d reached the algorithm before, %d after; %+v", reports, alg.reports, ag)
	}
}

// failOverAfterRefusals kills the agent of a refusing deployment at one
// second, when the periodic snapshots have seen every refusal, and runs two
// more. A standby restored after the refusals must name every report of the
// program the datapath kept, and send nothing the verifier refuses: the
// promoted agent restores the flow, hears no refusal and drops no report, and
// the algorithm keeps hearing the flow. The datapath refused refusals
// Installs, all before the kill, and the safe program stays in force.
func failOverAfterRefusals(t *testing.T, alg *refusingAlg, refusals int) {
	t.Helper()
	net, f := newRefusingNet(alg, true)
	original := net.Agent
	net.Sim.Schedule(time.Second, net.AgentInj.Kill)
	net.Run(time.Second)
	before, reports := net.Agent.Stats().Agent, alg.reports
	net.Run(2 * time.Second)
	if net.Agent == original {
		t.Fatal("failover never promoted the standby")
	}
	if ag := net.Agent.Stats().Agent; ag.Restores != 1 || ag.UnknownEpochs != 0 || ag.InstallErrs != 0 || ag.Errors != 0 || alg.reports <= reports {
		t.Fatalf("promoted agent: %+v; the algorithm heard %d reports before the kill, %d after", ag, reports, alg.reports)
	}
	if dp := f.DP.Stats(); before.InstallErrs != int64(refusals) || dp.InstallRejects != refusals || f.Conn.Cwnd() != refusingCwnd {
		t.Fatalf("datapath: %+v, cwnd %d; the primary heard %d refusals; want %d and the safe program still in force",
			dp, f.Conn.Cwnd(), before.InstallErrs, refusals)
	}
}

// TestRefusedInstallSurvivesFailover: the agent of
// TestUnsafeInstallRefusedAtTheDatapath dies after the refusal, and a
// standby restored from a snapshot taken after it takes over. The
// snapshot carries the program the datapath kept, under its epoch.
func TestRefusedInstallSurvivesFailover(t *testing.T) {
	failOverAfterRefusals(t, &refusingAlg{unsafe: []*lang.Program{unsafeOver(refusingFold("acked"), 2)}}, 1)
}

// TestRefusedWholeInstallAndItsReferenceSurviveFailover: the unsafe program
// brings a fold of its own, so it goes whole, and a second one over that fold
// follows it by reference before either is refused. The first refusal names
// the safe program and its epoch, and the second, of a reference to the
// refused epoch, names them again; a standby restored after both runs the
// safe program under its epoch.
func TestRefusedWholeInstallAndItsReferenceSurviveFailover(t *testing.T) {
	fold := refusingFold("bytes")
	failOverAfterRefusals(t, &refusingAlg{unsafe: []*lang.Program{unsafeOver(fold, 2), unsafeOver(fold, 3)}}, 2)
}

// TestSnapshotBeforeRefusalSurvivesFailover: the primary sends an unsafe
// program of another fold, whole, and a snapshot is taken and the primary
// killed before its refusal returns. The standby restored from that snapshot
// holds the refused program under its epoch, so it cannot name the
// datapath's first report: it resends the program, which is refused once,
// and the refusal names the safe program, by which it names every report
// after.
func TestSnapshotBeforeRefusalSurvivesFailover(t *testing.T) {
	alg := &refusingAlg{unsafe: []*lang.Program{unsafeOver(refusingFold("bytes"), 2)}}
	var net *harness.Net
	alg.sent = func() {
		net.Sim.Schedule(time.Microsecond, func() { // the refusal is a round trip away
			if _, err := supervise.Replicate(net.Agent, true, net.Standby.Apply); err != nil {
				t.Error(err)
			}
			net.AgentInj.Kill()
		})
	}
	net, f := newRefusingNet(alg, true)
	original := net.Agent
	net.Run(time.Second)
	if net.Agent == original {
		t.Fatal("failover never promoted the standby")
	}
	ag, reports := net.Agent.Stats().Agent, alg.reports
	if ag.Restores != 1 || ag.InstallErrs != 1 || ag.UnknownEpochs == 0 || ag.RefResends != 0 || ag.Errors != 0 {
		t.Fatalf("promoted agent: %+v; want its resend refused once", ag)
	}
	net.Run(2 * time.Second)
	after := net.Agent.Stats().Agent
	if after.InstallErrs != 1 || after.UnknownEpochs != ag.UnknownEpochs || alg.reports <= reports {
		t.Fatalf("after the refusal: %+v; the algorithm heard %d reports, then %d", after, reports, alg.reports)
	}
	if dp := f.DP.Stats(); dp.InstallRejects != 2 || f.Conn.Cwnd() != refusingCwnd {
		t.Fatalf("datapath: %+v, cwnd %d; want the safe program still in force", dp, f.Conn.Cwnd())
	}
}

func TestHelpers(t *testing.T) {
	if harness.BDPBytes(1e9, 10*time.Millisecond) != 1250000 {
		t.Fatal("BDP helper wrong")
	}
}
