// Package harness assembles complete simulated CCP deployments: a dumbbell
// network, a user-space agent with the bundled algorithm registry, the
// simulated-IPC bridge with both fault layers in its path (the agent
// injector behind it, the channel injector on its wire; both transparent
// until told otherwise), and any mix of CCP-controlled and native
// (in-datapath) flows. The agent is the runtime.Runtime that cmd/ccp-agent
// serves, with the one shard the event loop runs itself. Experiments,
// examples, and integration tests all build on it.
package harness

import (
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/supervise"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// Config describes a harness deployment.
type Config struct {
	// Seed seeds the simulator RNG (default 1).
	Seed int64
	// Link is the forward bottleneck.
	Link netsim.LinkConfig
	// IPCLatency is the one-way agent↔datapath latency (default 25µs, the
	// order of the Figure 2 Unix-socket measurements).
	IPCLatency time.Duration
	// DefaultAlg names the agent's default algorithm (default "cubic").
	DefaultAlg string
	// Policy optionally clamps per-flow decisions.
	Policy core.PolicyFunc
	// Registry overrides the algorithm registry (default: all bundled).
	Registry *core.Registry
	// Faults is the plan of the channel fault injector on every CCP flow's
	// agent↔datapath wire (Net.ChannelInj), drawing on the simulator RNG so
	// runs stay deterministic per seed. The zero plan injects nothing and
	// puts nothing on the wire.
	Faults faults.Plan
	// HA, when non-nil, deploys the high-availability layer: a warm standby
	// replicated every 50 ms, and a supervisor with this configuration that
	// promotes the standby on agent failure. Its Clock, Handler and
	// OnFailover are wired by the harness; zero values take the supervise
	// defaults. See startHA.
	HA *supervise.Config
}

// Net is a running deployment.
type Net struct {
	Sim    *netsim.Sim
	Path   *netsim.Path
	Fwd    *netsim.Demux
	Rev    *netsim.Demux
	Agent  *runtime.Runtime
	Bridge *bridge.Bridge
	// ChannelInj is the fault injector on every CCP flow's wire, under
	// Config.Faults.
	ChannelInj *faults.Injector
	// AgentInj stands between the bridge and Agent. Healthy, it passes every
	// message through synchronously; it is the one way to pause, slow, kill
	// and restart the agent process.
	AgentInj *faults.AgentInjector
	// Standby and Supervisor are set when Config.HA was given. After a
	// failover, Agent points at the promoted standby.
	Standby    *supervise.Standby
	Supervisor *supervise.Supervisor

	agentCfg core.AgentConfig
	nextSID  uint32
	haPrimed bool
}

// New builds a deployment; panics on misconfiguration (tests and
// experiments construct these statically).
func New(cfg Config) *Net {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.IPCLatency == 0 {
		cfg.IPCLatency = 25 * time.Microsecond
	}
	if cfg.DefaultAlg == "" {
		cfg.DefaultAlg = "cubic"
	}
	if cfg.Registry == nil {
		cfg.Registry = algorithms.NewRegistry()
	}
	sim := netsim.New(cfg.Seed)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: cfg.Link}, fwd, rev)
	agentCfg := core.AgentConfig{
		Registry:   cfg.Registry,
		DefaultAlg: cfg.DefaultAlg,
		Policy:     cfg.Policy,
	}
	n := &Net{
		Sim:      sim,
		Path:     path,
		Fwd:      fwd,
		Rev:      rev,
		agentCfg: agentCfg,
	}
	schedule := func(d time.Duration, fn func()) { sim.Schedule(d, fn) }
	n.Agent = n.newAgent()
	n.AgentInj = faults.NewAgentInjector(n.Agent.HandleFrame, schedule)
	n.ChannelInj = faults.NewInjector(cfg.Faults, sim.Rand(), schedule)
	n.Bridge = bridge.New(sim, n.AgentInj.HandleFrame, cfg.IPCLatency)
	if cfg.HA != nil {
		n.startHA(*cfg.HA)
	}
	return n
}

// newAgent builds the deployment's agent the way cmd/ccp-agent does on one
// core: a runtime whose single shard the dispatching caller — here the
// simulator's event loop — runs itself, so runs stay deterministic. Its
// counters are read from Net.Agent.Stats(), the agent's own under .Agent.
func (n *Net) newAgent() *runtime.Runtime {
	rt, err := runtime.New(runtime.Config{Shards: 1, Agent: n.agentCfg})
	if err != nil {
		panic("harness: " + err.Error())
	}
	return rt
}

// RestartAgent models an agent process restart: a fresh agent (empty flow
// table, same configuration) replaces the old one behind the injector, and
// the injector returns to healthy pass-through. Flows re-enter the fresh
// agent via the datapaths' Resync Creates.
func (n *Net) RestartAgent() { n.replaceAgent(nil) }

// replaceAgent is the one way a new agent process takes over: the old agent
// is closed, a fresh one is built, filled from the standby's store when one
// is given (the two calls ccp-agent -standby makes), and swapped in behind
// the injector, which returns to healthy pass-through.
func (n *Net) replaceAgent(from *supervise.Standby) {
	n.Agent.Close()
	n.Agent = n.newAgent()
	if from != nil {
		from.RestoreInto(n.Agent)
	}
	n.AgentInj.Restart(n.Agent.HandleFrame)
}

// CCPFlow is a CCP-controlled flow plus its datapath runtime.
type CCPFlow struct {
	*tcp.Flow
	DP *datapath.CCP
}

// AddCCPFlow creates a flow whose congestion control runs in the agent
// under the named algorithm ("" = agent default). Call Conn.Start (or
// StartAt) to begin.
func (n *Net) AddCCPFlow(id netsim.FlowID, alg string, opts tcp.Options) *CCPFlow {
	return n.AddCCPFlowCfg(id, alg, opts, datapath.Config{})
}

// AddCCPFlowCfg is AddCCPFlow with extra datapath configuration
// (StalenessBudget, DefaultProgram, SmoothCwnd).
func (n *Net) AddCCPFlowCfg(id netsim.FlowID, alg string, opts tcp.Options, dpCfg datapath.Config) *CCPFlow {
	n.nextSID++
	dpCfg.SID = n.nextSID
	dpCfg.Alg = alg
	dp := n.Bridge.Connect(dpCfg, n.ChannelInj.Tap(faults.ToAgent), n.ChannelInj.Tap(faults.ToDatapath))
	f := tcp.NewFlow(n.Sim, id, n.Path, n.Fwd, n.Rev, dp, opts)
	return &CCPFlow{Flow: f, DP: dp}
}

// AddNativeFlow creates a flow with in-datapath congestion control (the
// paper's baseline configuration).
func (n *Net) AddNativeFlow(id netsim.FlowID, ctl cc.CongestionControl, opts tcp.Options) *tcp.Flow {
	return tcp.NewFlow(n.Sim, id, n.Path, n.Fwd, n.Rev, ctl, opts)
}

// StartAt schedules a flow start at sim time t.
func (n *Net) StartAt(f *tcp.Flow, t time.Duration) {
	n.Sim.Schedule(t, f.Conn.Start)
}

// StopAt schedules a flow stop at sim time t.
func (n *Net) StopAt(f *tcp.Flow, t time.Duration) {
	n.Sim.Schedule(t, f.Conn.Stop)
}

// Run advances the simulation to the given absolute time.
func (n *Net) Run(until time.Duration) {
	n.Sim.Run(until)
}

// Utilization returns the bottleneck utilization over elapsed time.
func (n *Net) Utilization(elapsed time.Duration) float64 {
	return n.Path.Forward.Utilization(elapsed)
}

// BDPBytes computes a bandwidth-delay product for buffer sizing.
func BDPBytes(rateBps float64, rtt time.Duration) int {
	return int(rateBps / 8 * rtt.Seconds())
}
