package harness

import (
	"time"

	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/supervise"
)

// HAConfig deploys the high-availability layer (internal/supervise) around
// the deployment's agent: a warm standby fed by a periodic snapshot pump,
// and a supervisor whose failover promotes the standby behind the agent
// injector. Requires Config.AgentFaults — the injector is both the
// supervisor's probe target and the switch that redirects datapath traffic
// to the promoted agent.
//
// In-process replication (the pump applies snapshots straight into the
// standby on the simulator clock) keeps supervised runs deterministic; the
// wire path for two-process deployments is supervise.Replicate into a
// Standby behind runtime.ServeTransport, exercised by the supervise tests and
// the ccp-agent -standby mode.
type HAConfig struct {
	// SnapshotInterval is the replication pump period (default 50ms). The
	// standby's state is at most this stale at failover.
	SnapshotInterval time.Duration
	// Supervisor carries probe cadence and health thresholds. Clock,
	// Handler, and OnFailover are wired by the harness; zero values take
	// the supervise defaults.
	Supervisor supervise.Config
}

// startHA wires the standby, pump, and supervisor into a running Net.
func (n *Net) startHA(cfg HAConfig) {
	if n.AgentInj == nil {
		panic("harness: Config.HA requires Config.AgentFaults")
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = 50 * time.Millisecond
	}
	n.haInterval = cfg.SnapshotInterval
	n.Standby = supervise.NewStandby()
	scfg := cfg.Supervisor
	scfg.Clock = n.Sim
	scfg.Handler = n.AgentInj
	scfg.OnFailover = n.failover
	n.Supervisor = supervise.NewSupervisor(scfg)
	n.Supervisor.Start()
	n.Sim.Schedule(n.haInterval, n.haPump)
}

// haPump replicates one snapshot pass into the standby: a full pass the
// first time (and after each promotion — a fresh agent's flows are all
// unexported, so the incremental pass degenerates to full), incremental
// deltas afterwards. A dead or paused process cannot export its state, so
// replication pauses with it and the standby keeps the last delta it got —
// exactly the staleness the snapshot interval bounds.
func (n *Net) haPump() {
	if m := n.AgentInj.Mode(); m == faults.AgentHealthy || m == faults.AgentSlow {
		full := !n.haPrimed
		if _, err := n.Agent.SnapshotInto(full, func(s *proto.Snapshot) error {
			n.Standby.Apply(s)
			return nil
		}); err == nil {
			n.haPrimed = true
		}
	}
	n.Sim.Schedule(n.haInterval, n.haPump)
}

// failover is the supervisor's promotion hook: build a fresh agent, restore
// the standby's store into it (the two calls ccp-agent -standby makes), swap
// it in behind the injector (healthy passthrough), and reset the supervisor's
// health state so the replacement is judged on its own echoes. Datapaths find
// the new agent through their fallback resyncs; restored flows adopt those
// resyncs instead of cold-rebuilding.
func (n *Net) failover() {
	n.Agent.Close()
	n.Agent = n.newAgent()
	n.Standby.RestoreInto(n.Agent)
	n.AgentInj.Restart(n.Agent)
	n.Supervisor.Adopt()
}
