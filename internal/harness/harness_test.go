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
		Liveness: datapath.LivenessConfig{StalenessBudget: 500 * time.Millisecond},
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
// one over the same fold that the datapath's verifier refuses: an unbounded
// window. The agent sends it without looking, by reference to the fold.
type refusingAlg struct {
	flow         *core.Flow
	safe, unsafe *lang.Program
	reports      int
}

const refusingCwnd = 20 * 1448

func (a *refusingAlg) Name() string { return "refusing" }

func (a *refusingAlg) Init(f *core.Flow) {
	fold := &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "acked", Init: 0}},
		Updates: []lang.Assign{{Dst: "acked", E: lang.Add(lang.V("acked"), lang.V("pkt.acked"))}},
	}
	a.flow = f
	a.safe = lang.NewProgram().MeasureFold(fold).Cwnd(lang.C(refusingCwnd)).WaitRtts(1).Report().MustBuild()
	a.unsafe = lang.NewProgram().MeasureFold(fold).Cwnd(lang.Mul(lang.V("cwnd"), lang.C(2))).WaitRtts(1).Report().MustBuild()
	if err := f.Install(a.safe); err != nil {
		panic(err)
	}
}

func (a *refusingAlg) OnMeasurement(f *core.Flow, m core.Measurement) {
	a.reports++
	if a.reports == 1 {
		if err := f.Install(a.unsafe); err != nil {
			panic(err)
		}
	}
}

func (a *refusingAlg) OnUrgent(*core.Flow, core.UrgentEvent) {}

// TestUnsafeInstallRefusedAtTheDatapath: the datapath is the one gate. An
// unsafe program goes out from the agent unchecked, as a reference; the
// datapath refuses it; the agent, which cannot tell a refused reference from
// one to a half the datapath lacks, sends the program whole, which is refused
// too; the agent rolls its program back to the safe one it replaced, which
// keeps controlling the flow, and whose reports, named by their epoch, keep
// reaching the algorithm.
func TestUnsafeInstallRefusedAtTheDatapath(t *testing.T) {
	alg := &refusingAlg{}
	reg := core.NewRegistry()
	reg.Register("refusing", func() core.Alg { return alg })
	net := harness.New(harness.Config{Link: link(), Registry: reg, DefaultAlg: "refusing"})
	f := net.AddCCPFlow(1, "", tcp.Options{})
	f.Conn.Start()
	net.Run(time.Second)

	dp, ag := f.DP.Stats(), net.Agent.Stats().Agent
	if alg.reports < 2 {
		t.Fatalf("%d reports reached the algorithm", alg.reports)
	}
	if ag.InstallsByRef != 1 || ag.RefResends != 1 || ag.InstallErrs != 2 {
		t.Fatalf("agent: %+v; want one Install by reference, resent whole once, two refusals heard", ag)
	}
	if dp.InstallRejects != 2 || dp.RefRefusals != 0 || dp.InstallsRecvd != 1 {
		t.Fatalf("datapath: %+v; want the reference and the resend refused by the verifier, the safe program installed", dp)
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

// TestRefusedInstallSurvivesFailover: the agent of
// TestUnsafeInstallRefusedAtTheDatapath dies after the refusals, and a
// standby restored from a snapshot taken after them takes over. The
// snapshot carries the program the datapath kept, under its epoch, so the
// promoted agent names the datapath's reports from the first, sends nothing
// the verifier refuses, and its algorithm keeps hearing the flow.
func TestRefusedInstallSurvivesFailover(t *testing.T) {
	alg := &refusingAlg{}
	reg := core.NewRegistry()
	reg.Register("refusing", func() core.Alg { return alg })
	net := harness.New(harness.Config{Link: link(), Registry: reg, DefaultAlg: "refusing",
		HA: &supervise.Config{Interval: 5 * time.Millisecond, LatencyBudget: 100 * time.Millisecond, MissBudget: 3}})
	f := net.AddCCPFlow(1, "", tcp.Options{})
	f.Conn.Start()
	original := net.Agent
	net.Sim.Schedule(time.Second, net.AgentInj.Kill)
	net.Run(time.Second)
	if ag := net.Agent.Stats().Agent; ag.InstallErrs != 2 {
		t.Fatalf("before the kill: %+v; want the two refusals heard", ag)
	}
	reports := alg.reports
	net.Run(2 * time.Second)

	if net.Agent == original {
		t.Fatal("failover never promoted the standby")
	}
	ag, dp := net.Agent.Stats().Agent, f.DP.Stats()
	if ag.Restores != 1 || ag.UnknownEpochs != 0 || ag.InstallErrs != 0 || ag.Errors != 0 || alg.reports <= reports {
		t.Fatalf("promoted agent: %+v; the algorithm heard %d reports before the kill, %d after", ag, reports, alg.reports)
	}
	if dp.InstallRejects != 2 || f.Conn.Cwnd() != refusingCwnd {
		t.Fatalf("datapath: %+v, cwnd %d; want the safe program still in force", dp, f.Conn.Cwnd())
	}
}

func TestHelpers(t *testing.T) {
	if harness.BDPBytes(1e9, 10*time.Millisecond) != 1250000 {
		t.Fatal("BDP helper wrong")
	}
}
