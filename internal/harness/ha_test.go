package harness_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/supervise"
	"github.com/ccp-repro/ccp/internal/tcp"
)

func haLink() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
}

// The staleness clock's blind spot: a uniformly *slow* agent keeps its
// decision cadence, so the per-kind staleness clocks never trip once late
// decisions start flowing — yet every decision it makes is stale. With the
// staleness budget alone set, the watchdog's tick probes the agent (every
// 200ms/4), and the datapath must converge to exactly one fallback entry (no
// flapping while slow decisions dribble in) and exactly one exit, driven by
// the probe latency EWMA clearing its hysteresis gate after the agent heals.
func TestSlowAgentSingleFallbackCycle(t *testing.T) {
	net := harness.New(harness.Config{Link: haLink()})
	f := net.AddCCPFlowCfg(1, "cubic", tcp.Options{}, datapath.Config{
		StalenessBudget: 200 * time.Millisecond,
	})
	f.Conn.Start()
	// Warm up healthy, then slow every agent delivery by 10x the staleness
	// budget, then heal.
	net.Sim.Schedule(2*time.Second, func() { net.AgentInj.SlowDown(2 * time.Second) })
	net.Sim.Schedule(8*time.Second, func() { net.AgentInj.SlowDown(0) })
	net.Run(14 * time.Second)

	st := f.DP.Stats()
	if st.FallbackOn != 1 {
		t.Fatalf("fallback entries = %d, want exactly 1 (no flapping): %+v", st.FallbackOn, st)
	}
	if st.FallbackOff != 1 {
		t.Fatalf("fallback exits = %d, want exactly 1: %+v", st.FallbackOff, st)
	}
	if f.DP.FallbackActive() {
		t.Fatal("still in fallback long after the agent healed")
	}
	if st.ProbesSent == 0 || st.ProbeEchoes == 0 {
		t.Fatalf("probing never ran: %+v", st)
	}
	if st.ProbeExits != 1 {
		t.Fatalf("probe exits = %d, want 1 (exit must come from the probe gate)", st.ProbeExits)
	}
	// What the slow agent costs the agent side, bounded so that a change to
	// how a resync Create is taken that makes it worse shows here: each of the
	// fallback's resyncs with a new Seq rebuilds the flow, and the rebuilt flow
	// drops every report of the program its datapath still runs, resending its
	// own for each (ROADMAP item 19). The rule in force today makes 89 flows
	// and drops 314 reports.
	if ag := net.Agent.Stats().Agent; ag.FlowsCreated > 89 || ag.UnknownEpochs > 314 {
		t.Fatalf("agent flows made = %d, reports of unknown epochs = %d; want at most 89 and 314", ag.FlowsCreated, ag.UnknownEpochs)
	}
}

// The headline HA property: with a warm standby and a fast supervisor, an
// agent kill is resolved by promotion before the datapath's staleness
// budget ever trips — flows never enter fallback, never replay the
// multiplicative decrease, and resume fresh (warm-state) decisions from the
// promoted agent.
func TestWarmStandbyFailoverBeatsFallback(t *testing.T) {
	net := harness.New(harness.Config{
		Link: haLink(),
		HA: &supervise.Config{
			Interval:      5 * time.Millisecond,
			LatencyBudget: 100 * time.Millisecond,
			MissBudget:    3,
		},
	})
	f := net.AddCCPFlowCfg(1, "cubic", tcp.Options{}, datapath.Config{
		StalenessBudget: 500 * time.Millisecond,
	})
	f.Conn.Start()
	original := net.Agent
	net.Sim.Schedule(3*time.Second, net.AgentInj.Kill)
	net.Run(10 * time.Second)

	if net.Agent == original {
		t.Fatal("failover never promoted the standby")
	}
	sup := net.Supervisor.Stats()
	if sup.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1: %+v", sup.Failovers, sup)
	}
	ag := net.Agent.Stats().Agent
	if ag.Restores == 0 {
		t.Fatal("promoted agent restored no flows — cold start, not warm standby")
	}
	if ag.ResyncAdopts+ag.Measurements == 0 {
		t.Fatal("datapath never reattached to the promoted agent")
	}
	st := f.DP.Stats()
	if st.FallbackOn != 0 {
		t.Fatalf("datapath entered fallback %d times despite warm failover: %+v", st.FallbackOn, st)
	}
	// The flow keeps making progress under the promoted agent.
	if net.Utilization(10*time.Second) < 0.7 {
		t.Fatalf("utilization %.3f after failover, want healthy link", net.Utilization(10*time.Second))
	}
}

// The snapshot pump stops replicating from a dead or paused process (a
// corpse cannot export its state); the standby keeps the last delta.
func TestPumpPausesWithDeadAgent(t *testing.T) {
	net := harness.New(harness.Config{
		Link: haLink(),
		// Monitor thresholds so loose the supervisor never fires: this
		// test watches the pump alone.
		HA: &supervise.Config{
			Interval:      10 * time.Millisecond,
			LatencyBudget: time.Hour,
			MissBudget:    1 << 30,
		},
	})
	f := net.AddCCPFlow(1, "cubic", tcp.Options{})
	f.Conn.Start()
	net.Run(2 * time.Second)
	if net.Standby.FlowCount() != 1 {
		t.Fatalf("standby flows = %d before kill, want 1", net.Standby.FlowCount())
	}
	applied := net.Standby.Stats().Applied
	net.AgentInj.Kill()
	net.Run(4 * time.Second)
	if got := net.Standby.Stats().Applied; got != applied {
		t.Fatalf("pump kept replicating from a dead agent: %d -> %d", applied, got)
	}
	if net.Standby.FlowCount() != 1 {
		t.Fatal("standby lost its last-known state")
	}
}
