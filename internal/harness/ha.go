package harness

import (
	"time"

	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/supervise"
)

// snapshotInterval is the replication pump period: the standby's state is at
// most this stale at failover.
const snapshotInterval = 50 * time.Millisecond

// startHA deploys the high-availability layer (internal/supervise) around
// the deployment's agent: a warm standby fed by a periodic snapshot pump,
// and a supervisor whose failover promotes the standby behind the agent
// injector — the injector is both the supervisor's probe target and the
// switch that redirects datapath traffic to the promoted agent.
//
// The pump replicates as ccp-agent does, with supervise.Replicate, over the
// same wire codec: its send is Standby.Apply, called on the simulator clock,
// where ccp-agent's is the standby's transport. So supervised runs stay
// deterministic and run the two-process replication code.
func (n *Net) startHA(scfg supervise.Config) {
	n.Standby = supervise.NewStandby()
	scfg.Clock = n.Sim
	scfg.Handler = n.AgentInj.HandleFrame
	scfg.OnFailover = n.failover
	n.Supervisor = supervise.NewSupervisor(scfg)
	n.Supervisor.Start()
	n.Sim.Schedule(snapshotInterval, n.haPump)
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
		if _, err := supervise.Replicate(n.Agent, full, n.Standby.Apply); err == nil {
			n.haPrimed = true
		}
	}
	n.Sim.Schedule(snapshotInterval, n.haPump)
}

// failover is the supervisor's promotion hook: the standby's store replaces
// the agent (replaceAgent), and the supervisor's health state is reset so
// the replacement is judged on its own echoes. Datapaths find the new agent
// through their fallback resyncs; restored flows adopt those resyncs instead
// of cold-rebuilding.
func (n *Net) failover() {
	n.replaceAgent(n.Standby)
	n.Supervisor.Adopt()
}
