package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// AblChaosRow is one fault-intensity setting's outcome.
type AblChaosRow struct {
	Rate        float64 // per-message probability of each fault kind
	Utilization float64
	Goodput     float64 // payload bytes/sec
	MedianRTT   time.Duration
	// Fallback and recovery activity (datapath side).
	FallbackOn, FallbackOff int
	Resyncs                 int
	StaleCtrlDropped        int
	// AgentDiscards sums agent-side protections: duplicated Creates and
	// urgents, and stale reports, all silently discarded.
	AgentDiscards int
	// Injected is the injector's total fault accounting (both directions).
	Injected faults.DirStats
}

// AblChaosResult sweeps channel fault intensity over the agent↔datapath
// channel: at zero the wrapped channel must be bit-identical to the plain
// one; as faults grow the sequence protocol and the §5 fallback must keep
// the flow alive and its utilization bounded away from zero.
type AblChaosResult struct {
	Rows []AblChaosRow
	// ZeroMatchesBaseline is true when the rate-0 run's summary, datapath
	// counters, and agent counters all equal a run with no fault layer at
	// all — the injector at rate 0 is provably transparent.
	ZeroMatchesBaseline bool
}

// AblChaos runs CCP Cubic under uniform drop/corrupt/duplicate/reorder rates
// with 2ms delay jitter, both directions, on the canonical evaluation link.
// All randomness comes from the simulator seed, so the sweep is
// deterministic end to end.
func AblChaos() AblChaosResult {
	link := oneBDPLink(48e6, 10*time.Millisecond)
	dur := 10 * time.Second

	type outcome struct {
		sum   RunSummary
		dp    datapath.Stats
		agent core.AgentStats
		fault faults.Stats
	}
	runOne := func(plan *faults.Plan) outcome {
		net := harness.New(harness.Config{Seed: 1, Link: link, Faults: plan})
		f := net.AddCCPFlowCfg(1, "cubic", tcp.Options{},
			datapath.Config{Liveness: datapath.LivenessConfig{StalenessBudget: 500 * time.Millisecond}})
		rtt := sampleRTT(net, f.Conn, 50*time.Millisecond, dur)
		f.Conn.Start()
		net.Run(dur)
		o := outcome{sum: summarize(net, f.Flow, rtt, dur), dp: f.DP.Stats().Deterministic(), agent: net.Agent.Stats().Agent}
		if net.FaultBridge != nil {
			o.fault = net.FaultBridge.Stats()
		}
		return o
	}

	base := runOne(nil)
	var res AblChaosResult
	for _, rate := range []float64{0, 0.05, 0.2, 0.5, 0.9} {
		// Rate 0 is the fully zero plan (no jitter either): the injector is
		// in the path but must be a no-op.
		plan := faults.Plan{}
		if rate > 0 {
			plan = faults.Uniform(rate, 2*time.Millisecond)
		}
		o := runOne(&plan)
		if rate == 0 {
			res.ZeroMatchesBaseline = o.sum == base.sum && o.dp == base.dp && o.agent == base.agent
		}
		res.Rows = append(res.Rows, AblChaosRow{
			Rate:             rate,
			Utilization:      o.sum.Utilization,
			Goodput:          o.sum.Goodput,
			MedianRTT:        o.sum.MedianRTT,
			FallbackOn:       o.dp.FallbackOn,
			FallbackOff:      o.dp.FallbackOff,
			Resyncs:          o.dp.Resyncs,
			StaleCtrlDropped: o.dp.StaleCtrlDropped,
			AgentDiscards:    o.agent.DupCreates + o.agent.DupUrgents + o.agent.StaleReports,
			Injected:         o.fault.Total(),
		})
	}
	return res
}

// String renders the sweep.
func (r AblChaosResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation (robustness): agent↔datapath channel under injected faults — CCP Cubic, 48 Mbit/s, 1 BDP buffer\n")
	b.WriteString("  uniform drop/corrupt/dup/reorder at the given rate, 2ms jitter, both directions\n\n")
	fmt.Fprintf(&b, "  %-6s %12s %10s %11s %9s %8s %10s %10s %9s %8s\n",
		"rate", "utilization", "medianRTT", "fallback", "resyncs", "stale", "agtDiscard", "injDrops", "injCorr", "killed")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-6.2f %11.1f%% %10v %5don/%doff %9d %8d %10d %10d %9d %8d\n",
			row.Rate, row.Utilization*100, row.MedianRTT,
			row.FallbackOn, row.FallbackOff, row.Resyncs, row.StaleCtrlDropped,
			row.AgentDiscards, row.Injected.Dropped, row.Injected.Corrupted,
			row.Injected.DecodeKilled)
	}
	fmt.Fprintf(&b, "\n  rate-0 run bit-identical to fault-free channel: %v\n", r.ZeroMatchesBaseline)
	return b.String()
}
