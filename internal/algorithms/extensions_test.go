package algorithms_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
	"github.com/ccp-repro/ccp/internal/trace"
)

// §5 synthesis: the in-datapath AIMD must work with the agent completely
// out of the control loop.
func TestSynthesizedAIMDRunsAutonomously(t *testing.T) {
	net := harness.New(harness.Config{Link: wan16()})
	f := net.AddCCPFlow(1, "aimd-dp", tcp.Options{})
	f.Conn.Start()
	net.Run(20 * time.Second)
	if u := net.Utilization(20 * time.Second); u < 0.7 {
		t.Fatalf("synthesized aimd utilization %.3f", u)
	}
	// Exactly one Install; no SetCwnd/SetRate commands ever.
	st := f.DP.Stats()
	if st.InstallsRecvd != 1 {
		t.Fatalf("installs=%d, want 1 (install-once synthesis)", st.InstallsRecvd)
	}
	if st.SetCwndRecvd != 0 || st.SetRateRecvd != 0 {
		t.Fatalf("agent issued direct commands: %+v", st)
	}
}

// §5 synthesis under hostile IPC: with one-way IPC latency far above the
// RTT, the synthesized controller keeps the delay bounded where the
// off-datapath AIMD (reacting a full IPC round-trip late) cannot.
func TestSynthesizedAIMDImmuneToIPCLatency(t *testing.T) {
	run := func(alg string) (float64, int) {
		// Shallow (1 BDP) buffer at a low RTT: loss reaction latency is
		// what separates the two.
		link := netsim.LinkConfig{RateBps: 2.5e9, Delay: 100 * time.Microsecond, QueueBytes: 62500}
		net := harness.New(harness.Config{
			Link:       link,
			IPCLatency: 2 * time.Millisecond, // 10x the RTT
		})
		f := net.AddCCPFlow(1, alg, tcp.Options{MinRTO: 5 * time.Millisecond})
		f.Conn.Start()
		dur := 2 * time.Second
		net.Run(dur)
		return net.Utilization(dur), net.Path.Forward.Stats().DroppedOverflow
	}
	utilDP, dropsDP := run("aimd-dp")
	utilAgent, dropsAgent := run("aimd")
	if utilDP < 0.7 {
		t.Fatalf("synthesized utilization %.3f under slow IPC", utilDP)
	}
	// The off-datapath variant learns about every loss ~10 RTTs late and
	// keeps overshooting; the synthesized one reacts within one RTT.
	if dropsDP >= dropsAgent {
		t.Fatalf("synthesized drops %d not below off-datapath %d (util %.2f vs %.2f)",
			dropsDP, dropsAgent, utilDP, utilAgent)
	}
}

// §3 future work: smooth cwnd transitions cut the burst (queue spike) a
// single large window jump otherwise causes.
func TestSmoothCwndReducesBursts(t *testing.T) {
	run := func(smooth bool) int {
		link := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 22}
		reg := core.NewRegistry()
		reg.Register("hold", func() core.Alg { return holdAlg{} })
		net := harness.New(harness.Config{Link: link, Registry: reg, DefaultAlg: "hold"})
		f := net.AddCCPFlowCfg(1, "hold", tcp.Options{}, datapath.Config{SmoothCwnd: smooth})
		f.Conn.Start()
		net.Run(time.Second)
		pre := net.Path.Forward.Stats().MaxQueueBytes
		f.DP.Deliver(&proto.SetCwnd{SID: 1, Seq: 1, Bytes: 60000}) // hold sends nothing
		net.Run(1200 * time.Millisecond)
		return net.Path.Forward.Stats().MaxQueueBytes - pre
	}
	stepPeak := run(false)
	smoothPeak := run(true)
	if smoothPeak >= stepPeak {
		t.Fatalf("smoothing did not reduce peak queue: step=%d smooth=%d", stepPeak, smoothPeak)
	}
}

// holdAlg never touches the window; tests inject updates directly.
type holdAlg struct{}

func (holdAlg) Name() string                                   { return "hold" }
func (holdAlg) Init(f *core.Flow)                              {}
func (holdAlg) OnMeasurement(f *core.Flow, m core.Measurement) {}
func (holdAlg) OnUrgent(f *core.Flow, u core.UrgentEvent)      {}

func TestSmoothCwndStillConverges(t *testing.T) {
	net := harness.New(harness.Config{Link: wan16()})
	f := net.AddCCPFlowCfg(1, "cubic", tcp.Options{}, datapath.Config{SmoothCwnd: true})
	f.Conn.Start()
	net.Run(15 * time.Second)
	if u := net.Utilization(15 * time.Second); u < 0.8 {
		t.Fatalf("smooth-cwnd cubic utilization %.3f", u)
	}
}

// §5 groups: N flows under the Congestion-Manager-style aggregate behave
// as one controller with equal shares.
func TestGroupCMSharesEqually(t *testing.T) {
	reg := core.NewRegistry()
	reg.Register("cm", algorithms.NewGroupCM())
	link := netsim.LinkConfig{RateBps: 32e6, Delay: 5 * time.Millisecond, QueueBytes: 40000}
	net := harness.New(harness.Config{Link: link, Registry: reg, DefaultAlg: "cm"})
	var flows []*harness.CCPFlow
	for i := 1; i <= 3; i++ {
		f := net.AddCCPFlow(netsim.FlowID(i), "cm", tcp.Options{})
		flows = append(flows, f)
		f.Conn.Start()
	}
	dur := 20 * time.Second
	net.Run(dur)

	var shares []float64
	for _, f := range flows {
		d := float64(f.Receiver.Delivered())
		if d == 0 {
			t.Fatal("a group member starved")
		}
		shares = append(shares, d)
	}
	if fair := trace.JainFairness(shares); fair < 0.95 {
		t.Fatalf("group fairness %.3f (shares=%v)", fair, shares)
	}
	if u := net.Utilization(dur); u < 0.6 {
		t.Fatalf("group utilization %.3f", u)
	}
}

func TestGroupCMMembershipTracksCloses(t *testing.T) {
	cmFactory := algorithms.NewGroupCM()
	reg := core.NewRegistry()
	reg.Register("cm", cmFactory)
	link := netsim.LinkConfig{RateBps: 32e6, Delay: 5 * time.Millisecond, QueueBytes: 40000}
	net := harness.New(harness.Config{Link: link, Registry: reg, DefaultAlg: "cm"})
	f1 := net.AddCCPFlow(1, "cm", tcp.Options{})
	f2 := net.AddCCPFlow(2, "cm", tcp.Options{})
	f1.Conn.Start()
	f2.Conn.Start()
	net.Run(3 * time.Second)
	if got := net.Agent.FlowCount(); got != 2 {
		t.Fatalf("agent flows=%d", got)
	}
	before := float64(f1.Receiver.Delivered())
	// Close flow 2: flow 1 should absorb the whole budget.
	net.StopAt(f2.Flow, 3*time.Second)
	net.Run(10 * time.Second)
	after := float64(f1.Receiver.Delivered()) - before
	perSecBefore := before / 3
	perSecAfter := after / 7
	if perSecAfter < perSecBefore*1.3 {
		t.Fatalf("survivor did not absorb budget: %.0f B/s -> %.0f B/s", perSecBefore, perSecAfter)
	}
	if net.Agent.FlowCount() != 1 {
		t.Fatalf("agent flows=%d after close", net.Agent.FlowCount())
	}
}

// Sprout: cautious rate control on a variable link — utilization with
// bounded delay, plus the absolute-interval Wait cadence.
func TestSproutCautiousOnVariableLink(t *testing.T) {
	link := netsim.LinkConfig{
		RateBps:    16e6,
		Delay:      20 * time.Millisecond,
		QueueBytes: 1 << 22,
		LossProb:   0.001,
	}
	net := harness.New(harness.Config{Link: link})
	f := net.AddCCPFlow(1, "sprout", tcp.Options{})
	f.Conn.Start()
	dur := 20 * time.Second
	net.Run(dur)
	if u := net.Utilization(dur); u < 0.5 {
		t.Fatalf("sprout utilization %.3f", u)
	}
	// The cautious forecast keeps the standing queue low even with 4 MiB
	// of buffer available.
	if srtt := f.Conn.SRTT(); srtt > 70*time.Millisecond {
		t.Fatalf("sprout srtt %v — queue not controlled", srtt)
	}
	// The tick cadence: ~50 reports/sec at a 20 ms tick.
	reports := float64(f.DP.Stats().ReportsSent) / dur.Seconds()
	if reports < 30 || reports > 70 {
		t.Fatalf("report cadence %.1f/s, want ~50 (20ms ticks)", reports)
	}
}

// Churn: flows joining and leaving continuously must not wedge the agent,
// the datapath, or the accounting.
func TestFlowChurn(t *testing.T) {
	link := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
	net := harness.New(harness.Config{Link: link})
	algs := []string{"cubic", "reno", "vegas", "bbr", "aimd-dp"}
	var flows []*harness.CCPFlow
	for i := 0; i < 10; i++ {
		f := net.AddCCPFlow(netsim.FlowID(i+1), algs[i%len(algs)], tcp.Options{})
		flows = append(flows, f)
		start := time.Duration(i) * 500 * time.Millisecond
		net.StartAt(f.Flow, start)
		if i%2 == 0 {
			net.StopAt(f.Flow, start+3*time.Second)
		}
	}
	net.Run(10 * time.Second)
	if got := net.Agent.Stats().Agent.FlowsCreated; got != 10 {
		t.Fatalf("creates=%d", got)
	}
	if got := net.Agent.Stats().Agent.FlowsClosed; got != 5 {
		t.Fatalf("closes=%d", got)
	}
	if got := net.Agent.FlowCount(); got != 5 {
		t.Fatalf("live flows=%d, want 5", got)
	}
	for i, f := range flows {
		if f.Receiver.Delivered() == 0 {
			t.Fatalf("flow %d starved", i)
		}
		if err := f.Conn.CheckInvariants(); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if u := net.Utilization(10 * time.Second); u < 0.7 {
		t.Fatalf("churn utilization %.3f", u)
	}
}

// Sprout on its home turf: a cellular-style link whose capacity oscillates
// ±50% every 2 seconds. The cautious forecast must keep delay bounded
// through the swings while still using a good share of the (time-varying)
// capacity.
func TestSproutOnOscillatingLink(t *testing.T) {
	base := 16e6
	link := netsim.LinkConfig{RateBps: base, Delay: 20 * time.Millisecond, QueueBytes: 1 << 22}
	net := harness.New(harness.Config{Link: link})
	stop := netsim.OscillateRate(net.Sim, net.Path.Forward, base, 0.5, 2*time.Second)
	defer stop()
	f := net.AddCCPFlow(1, "sprout", tcp.Options{})
	f.Conn.Start()
	dur := 20 * time.Second
	net.Run(dur)
	// Mean capacity is ~base; demand at least 40% of it through the swings.
	goodput := float64(f.Receiver.Delivered()) * 8 / dur.Seconds()
	if goodput < 0.4*base {
		t.Fatalf("sprout goodput %.2f Mbit/s of ~%.0f mean", goodput/1e6, base/1e6)
	}
	if srtt := f.Conn.SRTT(); srtt > 120*time.Millisecond {
		t.Fatalf("sprout srtt %v on variable link", srtt)
	}
}
