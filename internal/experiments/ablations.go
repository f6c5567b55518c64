package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
	"github.com/ccp-repro/ccp/internal/trace"
)

// AblBatchingRow is one report-interval setting's outcome.
type AblBatchingRow struct {
	IntervalRtts float64 // 0 means per-ACK-approximating (0.05 RTT)
	Utilization  float64
	CwndRMSESegs float64 // fidelity vs. native Reno, segments
	MsgsPerSec   float64 // agent messages per second (both directions)
	MedianRTT    time.Duration
}

// AblBatchingResult sweeps the measurement batching interval (§2.3): how
// coarse can the CCP's control loop be before behaviour degrades, and what
// does fine-grained reporting cost in messages?
type AblBatchingResult struct {
	Rows []AblBatchingRow
}

// AblBatching runs CCP Reno with report intervals from ~per-ACK to 4 RTTs
// against a native Reno reference on the same link.
func AblBatching() AblBatchingResult {
	link := oneBDPLink(48e6, 10*time.Millisecond)
	dur := 20 * time.Second
	sample := 50 * time.Millisecond

	// Native reference trace.
	ref := harness.New(harness.Config{Seed: 1, Link: link})
	refFlow := ref.AddNativeFlow(1, cc.NewRenoCC(), tcp.Options{})
	refCwnd := sampleCwnd(ref, refFlow.Conn, sample, dur)
	refFlow.Conn.Start()
	ref.Run(dur)

	var res AblBatchingResult
	for _, rtts := range []float64{0.05, 0.1, 0.5, 1, 2, 4} {
		net := harness.New(harness.Config{Seed: 1, Link: link})
		prog := lang.NewProgram().MeasureEWMA().WaitRtts(rtts).Report().MustBuild()
		f := net.AddCCPFlowCfg(1, "reno", tcp.Options{}, datapath.Config{DefaultProgram: prog})
		cwnd := sampleCwnd(net, f.Conn, sample, dur)
		rtt := sampleRTT(net, f.Conn, sample, dur)
		f.Conn.Start()
		net.Run(dur)

		bst := net.Bridge.Stats()
		sum := summarize(net, f.Flow, rtt, dur)
		res.Rows = append(res.Rows, AblBatchingRow{
			IntervalRtts: rtts,
			Utilization:  sum.Utilization,
			CwndRMSESegs: trace.RMSE(cwnd, refCwnd, sample, dur/10, dur) / 1448,
			MsgsPerSec:   float64(bst.ToAgentMsgs+bst.ToDpMsgs) / dur.Seconds(),
			MedianRTT:    sum.MedianRTT,
		})
	}
	return res
}

// String renders the sweep.
func (r AblBatchingResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation (§2.3): measurement batching interval — CCP Reno vs native Reno reference\n\n")
	fmt.Fprintf(&b, "  %-14s %12s %16s %12s %12s\n",
		"interval(RTTs)", "utilization", "cwndRMSE(segs)", "msgs/sec", "medianRTT")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14.2f %11.1f%% %16.1f %12.1f %12v\n",
			row.IntervalRtts, row.Utilization*100, row.CwndRMSESegs,
			row.MsgsPerSec, row.MedianRTT)
	}
	return b.String()
}

// AblLowRTTCell is one (RTT, IPC latency) point.
type AblLowRTTCell struct {
	RTT         time.Duration
	IPCLatency  time.Duration
	Utilization float64
	// SRTTInflation is the final smoothed RTT over the propagation RTT: it
	// exposes the queueing cost of a lagging control loop even when raw
	// utilization stays high.
	SRTTInflation float64
}

// AblLowRTTResult probes §5's open question: does per-RTT off-datapath
// control survive very low RTTs, as IPC latency becomes comparable to the
// network RTT?
type AblLowRTTResult struct {
	Cells []AblLowRTTCell
}

// AblLowRTT sweeps RTT × IPC latency for CCP Cubic on a 2.5 Gbit/s link
// (datacenter-class RTTs; the rate is kept moderate so the sweep stays
// tractable — the RTT-to-IPC-latency *ratio* is what §5 asks about).
func AblLowRTT() AblLowRTTResult {
	var res AblLowRTTResult
	for _, rtt := range []time.Duration{
		50 * time.Microsecond, 200 * time.Microsecond,
		1 * time.Millisecond, 10 * time.Millisecond,
	} {
		for _, ipcLat := range []time.Duration{
			time.Microsecond, 10 * time.Microsecond,
			100 * time.Microsecond, time.Millisecond,
		} {
			link := oneBDPLink(2.5e9, rtt)
			net := harness.New(harness.Config{Seed: 1, Link: link, IPCLatency: ipcLat})
			minRTO := 4 * rtt
			if minRTO < time.Millisecond {
				minRTO = time.Millisecond
			}
			f := net.AddCCPFlow(1, "cubic", tcp.Options{MinRTO: minRTO, AckEvery: 2})
			f.Conn.Start()
			dur := 3000 * rtt // scale run length with the RTT
			if dur < 50*time.Millisecond {
				dur = 50 * time.Millisecond
			}
			if dur > 1500*time.Millisecond {
				dur = 1500 * time.Millisecond
			}
			net.Run(dur)
			inflation := 0.0
			if srtt := f.Conn.SRTT(); srtt > 0 {
				inflation = float64(srtt) / float64(rtt)
			}
			res.Cells = append(res.Cells, AblLowRTTCell{
				RTT: rtt, IPCLatency: ipcLat,
				Utilization:   net.Utilization(dur),
				SRTTInflation: inflation,
			})
		}
	}
	return res
}

// String renders the matrix.
func (r AblLowRTTResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation (§5): CCP at low RTTs — CCP Cubic on 2.5 Gbit/s, 1 BDP buffer\n")
	b.WriteString("  cell: utilization (smoothed-RTT inflation over propagation)\n\n")
	fmt.Fprintf(&b, "  %-10s", "RTT \\ IPC")
	var ipcs []time.Duration
	seen := map[time.Duration]bool{}
	for _, c := range r.Cells {
		if !seen[c.IPCLatency] {
			seen[c.IPCLatency] = true
			ipcs = append(ipcs, c.IPCLatency)
			fmt.Fprintf(&b, " %10v", c.IPCLatency)
		}
	}
	b.WriteString("\n")
	var curRTT time.Duration = -1
	for _, c := range r.Cells {
		if c.RTT != curRTT {
			if curRTT >= 0 {
				b.WriteString("\n")
			}
			curRTT = c.RTT
			fmt.Fprintf(&b, "  %-10v", c.RTT)
		}
		fmt.Fprintf(&b, " %4.0f%%(%3.1fx)", c.Utilization*100, c.SRTTInflation)
	}
	b.WriteString("\n")
	return b.String()
}

// AblFoldVecResult compares the two §2.4 batching designs on the same
// algorithm (Vegas).
type AblFoldVecResult struct {
	Fold, Vector struct {
		Utilization float64
		MedianRTT   time.Duration
		MsgsPerSec  float64
		BytesPerSec float64 // agent-bound measurement traffic
		RowsPerSec  float64 // per-packet rows shipped (vector only)
	}
}

// AblFoldVec runs fold- and vector-Vegas on identical links.
func AblFoldVec() AblFoldVecResult {
	// Deep buffer so the delay-based algorithm, not drops, governs.
	link := netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 22}
	dur := 20 * time.Second
	var res AblFoldVecResult
	for i, alg := range []string{"vegas", "vegas-vector"} {
		net := harness.New(harness.Config{Seed: 1, Link: link})
		f := net.AddCCPFlow(1, alg, tcp.Options{})
		rtt := sampleRTT(net, f.Conn, 50*time.Millisecond, dur)
		f.Conn.Start()
		net.Run(dur)
		sum := summarize(net, f.Flow, rtt, dur)
		bst := net.Bridge.Stats()
		dst := f.DP.Stats()
		out := &res.Fold
		if i == 1 {
			out = &res.Vector
		}
		out.Utilization = sum.Utilization
		out.MedianRTT = sum.MedianRTT
		out.MsgsPerSec = float64(bst.ToAgentMsgs) / dur.Seconds()
		out.BytesPerSec = float64(bst.ToAgentBytes) / dur.Seconds()
		out.RowsPerSec = float64(dst.VectorRowsSent) / dur.Seconds()
	}
	return res
}

// String renders the comparison.
func (r AblFoldVecResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation (§2.4): fold vs. vector batching — Vegas, identical links\n\n")
	fmt.Fprintf(&b, "  %-10s %12s %12s %10s %14s %12s\n",
		"mode", "utilization", "medianRTT", "msgs/sec", "bytes/sec→CCP", "pkt rows/sec")
	fmt.Fprintf(&b, "  %-10s %11.1f%% %12v %10.1f %14.0f %12.1f\n",
		"fold", r.Fold.Utilization*100, r.Fold.MedianRTT, r.Fold.MsgsPerSec,
		r.Fold.BytesPerSec, r.Fold.RowsPerSec)
	fmt.Fprintf(&b, "  %-10s %11.1f%% %12v %10.1f %14.0f %12.1f\n",
		"vector", r.Vector.Utilization*100, r.Vector.MedianRTT, r.Vector.MsgsPerSec,
		r.Vector.BytesPerSec, r.Vector.RowsPerSec)
	return b.String()
}

// AblFallbackResult verifies the §5 safety story: the datapath survives an
// agent crash and recovers when it returns.
type AblFallbackResult struct {
	UtilBefore, UtilDuring, UtilAfter float64
	Activations, Deactivations        int
	// Recovery accounting: the datapath re-announces the flow while the
	// agent is silent (Resyncs), the returning agent re-adopts it
	// (AgentFlowsCreated > 1) and re-installs its program (Installs > 1),
	// so no stale native-fallback state leaks into the recovered CCP window.
	Resyncs           int
	Installs          int
	AgentFlowsCreated int
}

// AblFallback kills the agent process from t=5s to t=15s; the same agent,
// flow table intact, comes back behind the injector.
func AblFallback() AblFallbackResult {
	link := oneBDPLink(48e6, 10*time.Millisecond)
	dur := 25 * time.Second
	net := harness.New(harness.Config{Seed: 1, Link: link})
	f := net.AddCCPFlowCfg(1, "cubic", tcp.Options{},
		datapath.Config{StalenessBudget: 500 * time.Millisecond})
	thr := sampleThroughput(net, f.Receiver, 100*time.Millisecond, dur)
	f.Conn.Start()
	net.Sim.Schedule(5*time.Second, net.AgentInj.Kill)
	net.Sim.Schedule(15*time.Second, func() { net.AgentInj.Restart(net.Agent.HandleFrame) })
	net.Run(dur)

	cap := link.RateBps / 8
	st := f.DP.Stats()
	return AblFallbackResult{
		UtilBefore:        thr.MeanOver(1*time.Second, 5*time.Second) / cap,
		UtilDuring:        thr.MeanOver(6*time.Second, 15*time.Second) / cap,
		UtilAfter:         thr.MeanOver(16*time.Second, 25*time.Second) / cap,
		Activations:       st.FallbackOn,
		Deactivations:     st.FallbackOff,
		Resyncs:           st.Resyncs,
		Installs:          st.InstallsRecvd,
		AgentFlowsCreated: int(net.Agent.Stats().Agent.FlowsCreated),
	}
}

// String renders the phases.
func (r AblFallbackResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation (§5): datapath fallback on agent crash — CCP Cubic, agent dead 5s–15s\n\n")
	fmt.Fprintf(&b, "  utilization before crash: %.1f%%\n", r.UtilBefore*100)
	fmt.Fprintf(&b, "  utilization during crash (fallback NewReno): %.1f%%\n", r.UtilDuring*100)
	fmt.Fprintf(&b, "  utilization after recovery: %.1f%%\n", r.UtilAfter*100)
	fmt.Fprintf(&b, "  fallback activations=%d deactivations=%d\n", r.Activations, r.Deactivations)
	fmt.Fprintf(&b, "  recovery: resync Creates=%d, agent flow adoptions=%d, programs installed=%d\n",
		r.Resyncs, r.AgentFlowsCreated, r.Installs)
	return b.String()
}

// AblUrgentResult compares urgent vs. purely batched congestion signals
// (§2.1): how much does immediate loss notification matter?
type AblUrgentResult struct {
	Urgent, Batched struct {
		Utilization float64
		MedianRTT   time.Duration
		Drops       int
	}
}

// AblUrgent runs CCP Reno with and without the urgent path on a small
// buffer where loss reaction latency matters.
func AblUrgent() AblUrgentResult {
	link := oneBDPLink(48e6, 10*time.Millisecond)
	dur := 20 * time.Second

	runOne := func(urgent bool) (RunSummary, int) {
		reg := core.NewRegistry()
		reg.Register("reno-abl", func() core.Alg {
			return &ablReno{useUrgent: urgent}
		})
		net := harness.New(harness.Config{
			Seed: 1, Link: link, Registry: reg, DefaultAlg: "reno-abl",
		})
		f := net.AddCCPFlow(1, "reno-abl", tcp.Options{})
		rtt := sampleRTT(net, f.Conn, 50*time.Millisecond, dur)
		f.Conn.Start()
		net.Run(dur)
		drops := net.Path.Forward.Stats().DroppedOverflow
		return summarize(net, f.Flow, rtt, dur), drops
	}

	var res AblUrgentResult
	sum, drops := runOne(true)
	res.Urgent.Utilization = sum.Utilization
	res.Urgent.MedianRTT = sum.MedianRTT
	res.Urgent.Drops = drops
	sum, drops = runOne(false)
	res.Batched.Utilization = sum.Utilization
	res.Batched.MedianRTT = sum.MedianRTT
	res.Batched.Drops = drops
	return res
}

// ablReno is Reno with a switchable loss path: urgent (immediate halving)
// or batched (halve when a report shows lost bytes).
type ablReno struct {
	useUrgent bool
	cwnd      float64
	ssthresh  float64
	mss       float64
}

func (a *ablReno) Name() string { return "reno-abl" }

func (a *ablReno) Init(f *core.Flow) {
	a.mss = float64(f.Info.MSS)
	a.cwnd = float64(f.Info.InitCwnd)
	a.ssthresh = 1 << 30
	f.SetCwnd(int(a.cwnd))
}

func (a *ablReno) OnMeasurement(f *core.Flow, m core.Measurement) {
	if !a.useUrgent {
		if lost := m.GetOr("lost", 0); lost > 0 {
			a.ssthresh = a.cwnd / 2
			a.cwnd = a.ssthresh
			if a.cwnd < 2*a.mss {
				a.cwnd = 2 * a.mss
			}
			f.SetCwnd(int(a.cwnd))
			return
		}
	}
	acked := m.GetOr("acked", 0)
	if acked <= 0 {
		return
	}
	if a.cwnd < a.ssthresh {
		a.cwnd += acked
	} else {
		a.cwnd += a.mss * (acked / a.cwnd)
	}
	f.SetCwnd(int(a.cwnd))
}

func (a *ablReno) OnUrgent(f *core.Flow, u core.UrgentEvent) {
	if !a.useUrgent {
		return // loss handled (late) via reports
	}
	switch u.Kind {
	case proto.UrgentDupAck, proto.UrgentECN:
		a.ssthresh = a.cwnd / 2
		a.cwnd = a.ssthresh
	case proto.UrgentTimeout:
		a.ssthresh = a.cwnd / 2
		a.cwnd = a.mss
	}
	if a.cwnd < 2*a.mss {
		a.cwnd = 2 * a.mss
	}
	f.SetCwnd(int(a.cwnd))
}

// String renders the comparison.
func (r AblUrgentResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation (§2.1): urgent vs. batched congestion signals — CCP Reno, 1 BDP buffer\n\n")
	fmt.Fprintf(&b, "  %-10s %12s %12s %10s\n", "mode", "utilization", "medianRTT", "drops")
	fmt.Fprintf(&b, "  %-10s %11.1f%% %12v %10d\n",
		"urgent", r.Urgent.Utilization*100, r.Urgent.MedianRTT, r.Urgent.Drops)
	fmt.Fprintf(&b, "  %-10s %11.1f%% %12v %10d\n",
		"batched", r.Batched.Utilization*100, r.Batched.MedianRTT, r.Batched.Drops)
	return b.String()
}
