package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
	"github.com/ccp-repro/ccp/internal/trace"
)

// This file implements the paper's stated future-work items as experiments:
// §3's smooth window transitions, §5's in-datapath synthesis, and §5's
// group congestion management.

// AblSmoothResult measures the §3 future-work fix: smoothing per-RTT window
// jumps in the datapath.
type AblSmoothResult struct {
	Step, Smooth struct {
		PeakQueueBytes int
		Drops          int
		Utilization    float64
	}
}

// AblSmooth isolates the step response: a flow holds a small window, then
// the agent raises it to one BDP in a single update — the per-RTT jump the
// paper worried about. The queue spike that follows is the burst.
func AblSmooth() AblSmoothResult {
	var res AblSmoothResult
	for _, smooth := range []bool{false, true} {
		const rate = 48e6
		rtt := 10 * time.Millisecond
		bdp := harness.BDPBytes(rate, rtt)
		link := netsim.LinkConfig{RateBps: rate, Delay: rtt / 2, QueueBytes: 1 << 22}
		reg := core.NewRegistry()
		reg.Register("fixed", func() core.Alg { return fixedAlg{} })
		net := harness.New(harness.Config{Seed: 1, Link: link, Registry: reg, DefaultAlg: "fixed"})
		f := net.AddCCPFlowCfg(1, "fixed", tcp.Options{}, datapath.Config{
			SmoothCwnd: smooth,
		})
		f.Conn.Start()
		// Let the small initial window reach steady state, then jump.
		net.Run(time.Second)
		pre := net.Path.Forward.Stats().MaxQueueBytes
		f.DP.Deliver(&proto.SetCwnd{SID: 1, Seq: 1, Bytes: uint32(bdp)}) // the flow's first decision
		dur := 1500 * time.Millisecond
		net.Run(dur)
		out := &res.Step
		if smooth {
			out = &res.Smooth
		}
		st := net.Path.Forward.Stats()
		out.PeakQueueBytes = st.MaxQueueBytes - pre
		out.Drops = st.DroppedOverflow
		out.Utilization = net.Utilization(dur)
	}
	return res
}

// fixedAlg installs its program, if any, at Init and decides nothing after:
// Table 2 checks that program's effects, AblSmooth delivers its own step.
type fixedAlg struct{ prog *lang.Program }

func (fixedAlg) Name() string { return "fixed" }
func (a fixedAlg) Init(f *core.Flow) {
	if a.prog != nil {
		f.Install(a.prog)
	}
}
func (fixedAlg) OnMeasurement(f *core.Flow, m core.Measurement) {}
func (fixedAlg) OnUrgent(f *core.Flow, u core.UrgentEvent)      {}

// String renders the comparison.
func (r AblSmoothResult) String() string {
	var b strings.Builder
	b.WriteString("Extension (§3 future work): smooth cwnd transitions — single 1-BDP window step\n\n")
	fmt.Fprintf(&b, "  %-10s %16s %8s %12s\n", "mode", "peak queue (B)", "drops", "utilization")
	fmt.Fprintf(&b, "  %-10s %16d %8d %11.1f%%\n", "step", r.Step.PeakQueueBytes, r.Step.Drops, r.Step.Utilization*100)
	fmt.Fprintf(&b, "  %-10s %16d %8d %11.1f%%\n", "smooth", r.Smooth.PeakQueueBytes, r.Smooth.Drops, r.Smooth.Utilization*100)
	return b.String()
}

// AblSynthesisResult measures §5's synthesis idea: AIMD compiled entirely
// into the datapath vs. the same AIMD run off-datapath, as the IPC latency
// grows past the network RTT.
type AblSynthesisResult struct {
	Rows []AblSynthesisRow
}

// AblSynthesisRow is one IPC-latency point.
type AblSynthesisRow struct {
	IPCLatency time.Duration
	OffDP      struct {
		Utilization float64
		Drops       int
	}
	InDP struct {
		Utilization float64
		Drops       int
	}
}

// AblSynthesis sweeps IPC latency at a 200µs network RTT.
func AblSynthesis() AblSynthesisResult {
	var res AblSynthesisResult
	rtt := 200 * time.Microsecond
	for _, ipcLat := range []time.Duration{
		10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 4 * time.Millisecond,
	} {
		row := AblSynthesisRow{IPCLatency: ipcLat}
		for i, alg := range []string{"aimd", "aimd-dp"} {
			link := oneBDPLink(2.5e9, rtt)
			net := harness.New(harness.Config{Seed: 1, Link: link, IPCLatency: ipcLat})
			f := net.AddCCPFlow(1, alg, tcp.Options{MinRTO: 5 * time.Millisecond})
			f.Conn.Start()
			dur := 2 * time.Second
			net.Run(dur)
			out := &row.OffDP
			if i == 1 {
				out = &row.InDP
			}
			out.Utilization = net.Utilization(dur)
			out.Drops = net.Path.Forward.Stats().DroppedOverflow
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders the sweep.
func (r AblSynthesisResult) String() string {
	var b strings.Builder
	b.WriteString("Extension (§5): synthesizing the controller into the datapath — AIMD at 200µs RTT\n\n")
	fmt.Fprintf(&b, "  %-12s %22s %22s\n", "IPC latency", "off-datapath (util/drops)", "in-datapath (util/drops)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12v %14.1f%% /%6d %16.1f%% /%6d\n",
			row.IPCLatency,
			row.OffDP.Utilization*100, row.OffDP.Drops,
			row.InDP.Utilization*100, row.InDP.Drops)
	}
	return b.String()
}

// AblGroupResult measures §5's group congestion management: N flows under
// one Congestion-Manager-style aggregate vs. N independent loops.
type AblGroupResult struct {
	Flows              int
	Group, Independent struct {
		Utilization float64
		Fairness    float64
		Drops       int
		MedianRTT   time.Duration
	}
}

// AblGroup compares 4 flows through one bottleneck under the cm aggregate
// against 4 independent CCP Reno loops.
func AblGroup() AblGroupResult {
	const n = 4
	res := AblGroupResult{Flows: n}
	link := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
	dur := 20 * time.Second

	run := func(group bool) (float64, float64, int, time.Duration) {
		reg := core.NewRegistry()
		algorithms.Register(reg)
		reg.Register("cm", algorithms.NewGroupCM())
		alg := "reno"
		if group {
			alg = "cm"
		}
		net := harness.New(harness.Config{Seed: 1, Link: link, Registry: reg, DefaultAlg: "reno"})
		var flows []*harness.CCPFlow
		for i := 1; i <= n; i++ {
			f := net.AddCCPFlow(netsim.FlowID(i), alg, tcp.Options{})
			flows = append(flows, f)
			f.Conn.Start()
		}
		var rtts *trace.Series
		rtts = sampleRTT(net, flows[0].Conn, 50*time.Millisecond, dur)
		net.Run(dur)
		var shares []float64
		for _, f := range flows {
			shares = append(shares, float64(f.Receiver.Delivered()))
		}
		var med time.Duration
		if rtts.Len() > 0 {
			var xs []float64
			for _, p := range rtts.Points() {
				xs = append(xs, p.V)
			}
			med = time.Duration(median(xs) * float64(time.Second))
		}
		return net.Utilization(dur), trace.JainFairness(shares),
			net.Path.Forward.Stats().DroppedOverflow, med
	}

	res.Group.Utilization, res.Group.Fairness, res.Group.Drops, res.Group.MedianRTT = run(true)
	res.Independent.Utilization, res.Independent.Fairness, res.Independent.Drops, res.Independent.MedianRTT = run(false)
	return res
}

// String renders the comparison.
func (r AblGroupResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (§5): group congestion management — %d flows, one bottleneck\n\n", r.Flows)
	fmt.Fprintf(&b, "  %-14s %12s %10s %8s %12s\n", "mode", "utilization", "fairness", "drops", "medianRTT")
	fmt.Fprintf(&b, "  %-14s %11.1f%% %10.3f %8d %12v\n", "cm aggregate",
		r.Group.Utilization*100, r.Group.Fairness, r.Group.Drops, r.Group.MedianRTT)
	fmt.Fprintf(&b, "  %-14s %11.1f%% %10.3f %8d %12v\n", "independent",
		r.Independent.Utilization*100, r.Independent.Fairness, r.Independent.Drops, r.Independent.MedianRTT)
	return b.String()
}
