package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// AgentChaosScenario is one (fault, fallback) cell's outcome.
//
// The scenario is built to expose the worst case for out-of-datapath
// control: flow B *starts during* the agent outage, so its Create never
// reaches a live agent and no control decision ever arrives. An established
// flow coasts on its last window when the agent dies; a newborn flow is
// pinned at InitCwnd (~10 segments) — on this link roughly a quarter of
// capacity — until something rescues it. The fail-safe layer is that
// something; without it the flow demonstrably stalls, including after the
// agent restarts (nothing re-announces the flow, so the fresh agent never
// learns it exists).
type AgentChaosScenario struct {
	Fault    string // "kill", "pause", or "slow"
	Fallback bool   // liveness layer + in-datapath fallback enabled

	// Utilization of flow B (born mid-outage): during the fault window and
	// after recovery.
	UtilDuring float64
	UtilAfter  float64

	// Datapath transition accounting for flow B.
	FallbackOn    int
	FallbackOff   int
	LivenessStale int
	HandoffRamps  int
	Resyncs       int
	InstallsRecvd int
	// AgentFlowsCreated counts the post-recovery agent's flow adoptions
	// (>= 1 proves the restarted agent re-adopted the mid-outage flow).
	AgentFlowsCreated int
	// Injected-fault accounting (held/replayed/dropped messages).
	Inj faults.AgentFaultStats
}

// AblAgentChaosResult is the agent-chaos matrix: each process-level fault
// (kill, pause, slowdown) with the fail-safe layer on and off.
type AblAgentChaosResult struct {
	Scenarios []AgentChaosScenario
}

// Chaos timeline constants. Flow A warms the link and leaves; flow B is
// born mid-outage and carries the measurement windows.
const (
	chaosDur      = 24 * time.Second
	chaosFaultAt  = 8 * time.Second
	chaosBStartAt = 9 * time.Second
	chaosAStopAt  = 10 * time.Second
	chaosHealAt   = 16 * time.Second
)

// AblAgentChaos runs the matrix on the canonical evaluation link
// (48 Mbit/s, 10 ms RTT, 1 BDP buffer). Everything runs on the simulator
// clock with a fixed seed, so the result is deterministic.
func AblAgentChaos() AblAgentChaosResult {
	var res AblAgentChaosResult
	for _, fault := range []string{"kill", "pause", "slow"} {
		for _, fb := range []bool{true, false} {
			res.Scenarios = append(res.Scenarios, runAgentChaos(fault, fb))
		}
	}
	return res
}

// agentFault returns the onset and the heal of a process-level fault of the
// deployment's agent: "kill" (healed by a real process restart: a fresh
// agent with an empty flow table, which only the datapaths' Resync Creates
// can repopulate), "pause", or "slow" (700 ms per message).
func agentFault(net *harness.Net, fault string) (onset, heal func()) {
	inj := net.AgentInj
	switch fault {
	case "kill":
		return inj.Kill, net.RestartAgent
	case "pause":
		return inj.Pause, inj.Resume
	case "slow":
		return func() { inj.SlowDown(700 * time.Millisecond) }, func() { inj.SlowDown(0) }
	}
	panic("experiments: unknown agent fault " + fault)
}

func runAgentChaos(fault string, fallback bool) AgentChaosScenario {
	link := oneBDPLink(48e6, 10*time.Millisecond)
	net := harness.New(harness.Config{Seed: 1, Link: link})
	var dpCfg datapath.Config
	if fallback {
		dpCfg.Liveness = datapath.LivenessConfig{StalenessBudget: 500 * time.Millisecond}
	}

	a := net.AddCCPFlowCfg(1, "cubic", tcp.Options{}, dpCfg)
	b := net.AddCCPFlowCfg(2, "cubic", tcp.Options{}, dpCfg)
	thr := sampleThroughput(net, b.Receiver, 100*time.Millisecond, chaosDur)

	a.Conn.Start()
	net.StartAt(b.Flow, chaosBStartAt)
	net.StopAt(a.Flow, chaosAStopAt)

	onset, heal := agentFault(net, fault)
	net.Sim.Schedule(chaosFaultAt, onset)
	net.Sim.Schedule(chaosHealAt, heal)
	net.Run(chaosDur)

	capBps := link.RateBps / 8
	st := b.DP.Stats()
	return AgentChaosScenario{
		Fault:             fault,
		Fallback:          fallback,
		UtilDuring:        thr.MeanOver(11*time.Second, chaosHealAt) / capBps,
		UtilAfter:         thr.MeanOver(17*time.Second, chaosDur) / capBps,
		FallbackOn:        st.FallbackOn,
		FallbackOff:       st.FallbackOff,
		LivenessStale:     st.LivenessStale,
		HandoffRamps:      st.HandoffRamps,
		Resyncs:           st.Resyncs,
		InstallsRecvd:     st.InstallsRecvd,
		AgentFlowsCreated: int(net.Agent.Stats().Agent.FlowsCreated),
		Inj:               net.AgentInj.Stats(),
	}
}

// String renders the matrix.
func (r AblAgentChaosResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation (§5): agent chaos — process-level faults at t=8s, heal at t=16s;\n")
	b.WriteString("flow B born mid-outage (t=9s) on 48 Mbit/s, 10 ms RTT, 1 BDP buffer\n")
	b.WriteString("(util measured on flow B: during = 11s-16s, after = 17s-24s)\n\n")
	fmt.Fprintf(&b, "  %-6s %-9s %10s %10s %6s %6s %7s %8s %9s %7s\n",
		"fault", "failsafe", "util-during", "util-after", "fb-on", "fb-off", "resync", "installs", "adoptions", "ramps")
	for _, s := range r.Scenarios {
		mode := "off"
		if s.Fallback {
			mode = "on"
		}
		fmt.Fprintf(&b, "  %-6s %-9s %10.1f%% %9.1f%% %6d %6d %7d %8d %9d %7d\n",
			s.Fault, mode, s.UtilDuring*100, s.UtilAfter*100,
			s.FallbackOn, s.FallbackOff, s.Resyncs, s.InstallsRecvd,
			s.AgentFlowsCreated, s.HandoffRamps)
	}
	return b.String()
}
