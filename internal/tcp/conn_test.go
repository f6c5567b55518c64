package tcp_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/nativecc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// testbed wires one or more flows over a shared bottleneck dumbbell.
type testbed struct {
	sim   *netsim.Sim
	path  *netsim.Path
	fwd   *netsim.Demux
	rev   *netsim.Demux
	flows []*tcp.Flow
}

func newTestbed(seed int64, link netsim.LinkConfig) *testbed {
	sim := netsim.New(seed)
	fwd := netsim.NewDemux()
	rev := netsim.NewDemux()
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: link}, fwd, rev)
	return &testbed{sim: sim, path: path, fwd: fwd, rev: rev}
}

func (tb *testbed) addFlow(id netsim.FlowID, ctl cc.CongestionControl, opts tcp.Options) *tcp.Flow {
	f := tcp.NewFlow(tb.sim, id, tb.path, tb.fwd, tb.rev, ctl, opts)
	tb.flows = append(tb.flows, f)
	return f
}

// fixedCC holds cwnd constant: pure datapath mechanics under test.
type fixedCC struct {
	cwnd int
	rate float64

	acks    int
	events  []cc.CongEvent
	samples []cc.AckSample
}

func (f *fixedCC) Name() string { return "fixed" }
func (f *fixedCC) Init(c cc.Host) {
	if f.cwnd > 0 {
		c.SetCwnd(f.cwnd)
	}
	if f.rate > 0 {
		c.SetPacingRate(f.rate)
	}
}
func (f *fixedCC) OnAck(c cc.Host, s cc.AckSample) {
	f.acks++
	if len(f.samples) < 4096 {
		f.samples = append(f.samples, s)
	}
}
func (f *fixedCC) OnCongestion(c cc.Host, ev cc.CongEvent, lost int) {
	f.events = append(f.events, ev)
}
func (f *fixedCC) Close(c cc.Host) {}

// link8mbps is a small, fast-to-simulate configuration: 8 Mbit/s, 10 ms RTT.
func link8mbps() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 64 * 1500}
}

func TestBulkTransferDelivers(t *testing.T) {
	tb := newTestbed(1, link8mbps())
	fc := &fixedCC{cwnd: 20 * 1448}
	f := tb.addFlow(1, fc, tcp.Options{})
	f.Conn.Start()
	tb.sim.Run(2 * time.Second)

	if f.Receiver.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
	if f.Conn.Stats().BytesAcked == 0 {
		t.Fatal("nothing acked")
	}
	// Delivered and acked must be consistent (acks lag by <= 1 RTT).
	if f.Conn.Stats().BytesAcked > f.Receiver.Delivered() {
		t.Fatalf("acked %d > delivered %d", f.Conn.Stats().BytesAcked, f.Receiver.Delivered())
	}
	if fc.acks == 0 {
		t.Fatal("no OnAck callbacks")
	}
}

func TestCwndLimitsInflight(t *testing.T) {
	tb := newTestbed(1, link8mbps())
	cwnd := 10 * 1448
	fc := &fixedCC{cwnd: cwnd}
	f := tb.addFlow(1, fc, tcp.Options{})
	f.Conn.Start()
	// Check inflight at several points during the run.
	for ms := 50; ms <= 1000; ms += 50 {
		tb.sim.Run(time.Duration(ms) * time.Millisecond)
		if got := f.Conn.InFlight(); got > cwnd {
			t.Fatalf("t=%dms: inflight %d > cwnd %d", ms, got, cwnd)
		}
	}
}

func TestThroughputMatchesCwndOverRTT(t *testing.T) {
	// With a fixed cwnd well below BDP, throughput ≈ cwnd/RTT.
	link := netsim.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueBytes: 1 << 20}
	tb := newTestbed(1, link)
	cwnd := 10 * 1448
	f := tb.addFlow(1, &fixedCC{cwnd: cwnd}, tcp.Options{})
	f.Conn.Start()
	dur := 5 * time.Second
	tb.sim.Run(dur)
	gotRate := float64(f.Receiver.Delivered()) / dur.Seconds()
	rtt := 20*time.Millisecond + time.Duration(float64((1448+40)*8)/link.RateBps*float64(time.Second))
	wantRate := float64(cwnd) / rtt.Seconds()
	if gotRate < wantRate*0.9 || gotRate > wantRate*1.1 {
		t.Fatalf("throughput %.0f B/s, want ~%.0f B/s", gotRate, wantRate)
	}
}

func TestPacingSpacesPackets(t *testing.T) {
	// Paced at 100 KB/s with a huge cwnd, throughput must track the pacing
	// rate, not the window.
	link := netsim.LinkConfig{RateBps: 1e9, Delay: time.Millisecond, QueueBytes: 1 << 24}
	tb := newTestbed(1, link)
	rate := 100e3 // bytes/sec
	f := tb.addFlow(1, &fixedCC{cwnd: 1 << 24, rate: rate}, tcp.Options{})
	f.Conn.Start()
	dur := 5 * time.Second
	tb.sim.Run(dur)
	got := float64(f.Receiver.Delivered()) / dur.Seconds()
	if got < rate*0.85 || got > rate*1.15 {
		t.Fatalf("paced throughput %.0f B/s, want ~%.0f", got, rate)
	}
}

func TestRTTEstimation(t *testing.T) {
	tb := newTestbed(1, link8mbps())
	f := tb.addFlow(1, &fixedCC{cwnd: 4 * 1448}, tcp.Options{})
	f.Conn.Start()
	tb.sim.Run(2 * time.Second)
	// Propagation RTT is 10 ms; with a small window the queue stays short,
	// so SRTT should sit a little above 10 ms.
	srtt := f.Conn.SRTT()
	if srtt < 10*time.Millisecond || srtt > 16*time.Millisecond {
		t.Fatalf("srtt=%v, want ~10-16ms", srtt)
	}
	if f.Conn.MinRTT() < 10*time.Millisecond || f.Conn.MinRTT() > 13*time.Millisecond {
		t.Fatalf("minRtt=%v", f.Conn.MinRTT())
	}
	if f.Conn.Stats().RTTSamples == 0 {
		t.Fatal("no RTT samples")
	}
}

func TestFastRetransmitOnLoss(t *testing.T) {
	// A tiny buffer with a large fixed window forces tail drops; the sender
	// must detect them via dup ACKs and repair via fast retransmit, and the
	// receiver must end up with a contiguous stream.
	link := netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 8 * 1500}
	tb := newTestbed(1, link)
	fc := &fixedCC{cwnd: 40 * 1448}
	f := tb.addFlow(1, fc, tcp.Options{})
	f.Conn.Start()
	tb.sim.Run(5 * time.Second)

	st := f.Conn.Stats()
	if st.FastRetx == 0 {
		t.Fatal("no fast retransmits despite forced drops")
	}
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions")
	}
	sawDupAck := false
	for _, ev := range fc.events {
		if ev == cc.EventDupAck {
			sawDupAck = true
		}
	}
	if !sawDupAck {
		t.Fatal("congestion control never notified of dup-ACK loss")
	}
	// Reliability: every byte acked was delivered in order.
	if f.Receiver.Delivered() < st.BytesAcked {
		t.Fatalf("delivered %d < acked %d", f.Receiver.Delivered(), st.BytesAcked)
	}
}

func TestTimeoutRecovery(t *testing.T) {
	// Loss probability 1 between t=1s and t=1.2s cannot be configured
	// directly; instead use a very lossy link so some RTOs occur with a
	// window too small for 3 dup ACKs.
	link := netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20, LossProb: 0.4}
	tb := newTestbed(7, link)
	fc := &fixedCC{cwnd: 2 * 1448}
	f := tb.addFlow(1, fc, tcp.Options{MinRTO: 50 * time.Millisecond})
	f.Conn.Start()
	tb.sim.Run(10 * time.Second)

	if f.Conn.Stats().Timeouts == 0 {
		t.Fatal("no timeouts on a 40%-loss link with a 2-segment window")
	}
	sawTimeout := false
	for _, ev := range fc.events {
		if ev == cc.EventTimeout {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatal("congestion control never notified of timeout")
	}
	// Despite heavy loss, the stream keeps making progress.
	if f.Receiver.Delivered() < 30*1448 {
		t.Fatalf("delivered only %d bytes", f.Receiver.Delivered())
	}
}

func TestECNEcho(t *testing.T) {
	link := netsim.LinkConfig{
		RateBps: 8e6, Delay: 5 * time.Millisecond,
		QueueBytes: 1 << 20, ECNThresholdBytes: 5 * 1500,
	}
	tb := newTestbed(1, link)
	fc := &fixedCC{cwnd: 40 * 1448}
	f := tb.addFlow(1, fc, tcp.Options{ECN: true})
	f.Conn.Start()
	tb.sim.Run(2 * time.Second)
	if f.Conn.Stats().ECNEchoes == 0 {
		t.Fatal("no ECN echoes despite standing queue above threshold")
	}
	sawECN := false
	for _, ev := range fc.events {
		if ev == cc.EventECN {
			sawECN = true
		}
	}
	if !sawECN {
		t.Fatal("congestion control never saw EventECN")
	}
	ecnSample := false
	for _, s := range fc.samples {
		if s.ECNEcho {
			ecnSample = true
		}
	}
	if !ecnSample {
		t.Fatal("no AckSample carried ECNEcho")
	}
}

func TestDeliveryRateSample(t *testing.T) {
	// On an uncongested 8 Mbit/s link saturated by a big window, the
	// delivery-rate samples should approach the link rate (1e6 B/s wire,
	// minus header overhead ≈ 0.973e6 payload B/s).
	tb := newTestbed(1, link8mbps())
	fc := &fixedCC{cwnd: 60 * 1448}
	f := tb.addFlow(1, fc, tcp.Options{})
	f.Conn.Start()
	tb.sim.Run(3 * time.Second)
	var last cc.AckSample
	for _, s := range fc.samples {
		if s.DeliveryRate > 0 {
			last = s
		}
	}
	if last.DeliveryRate < 0.8e6 || last.DeliveryRate > 1.1e6 {
		t.Fatalf("delivery rate %.0f B/s, want ~0.97e6", last.DeliveryRate)
	}
	if last.SndRate <= 0 {
		t.Fatal("no sending-rate sample")
	}
}

func TestKarnRTTExclusion(t *testing.T) {
	// Retransmitted segments must not contribute RTT samples.
	link := netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20, LossProb: 0.2}
	tb := newTestbed(3, link)
	fc := &fixedCC{cwnd: 20 * 1448}
	f := tb.addFlow(1, fc, tcp.Options{MinRTO: 50 * time.Millisecond})
	f.Conn.Start()
	tb.sim.Run(3 * time.Second)
	// All valid samples must be plausible (>= propagation RTT); an echo
	// from a retransmission would yield a wildly wrong (tiny or huge) RTT.
	for _, s := range fc.samples {
		if s.RTT != 0 && s.RTT < 10*time.Millisecond {
			t.Fatalf("implausible RTT sample %v (Karn violation)", s.RTT)
		}
	}
}

func TestTSOBatchesWirePackets(t *testing.T) {
	tb := newTestbed(1, link8mbps())
	fc := &fixedCC{cwnd: 64 * 1448}
	f := tb.addFlow(1, fc, tcp.Options{TSOSegs: 8})
	f.Conn.Start()
	tb.sim.Run(time.Second)
	st := f.Conn.Stats()
	if st.PktsSent == 0 {
		t.Fatal("nothing sent")
	}
	ratio := float64(st.SegsSent) / float64(st.PktsSent)
	if ratio < 2 {
		t.Fatalf("TSO ratio %.1f, want >= 2 (segs=%d pkts=%d)", ratio, st.SegsSent, st.PktsSent)
	}
	if f.Receiver.Stats().SegsRcvd < f.Receiver.Stats().PktsRcvd {
		t.Fatal("receiver segment accounting inconsistent")
	}
}

func TestDelayedAcksReduceAckCount(t *testing.T) {
	run := func(ackEvery int) int {
		tb := newTestbed(1, link8mbps())
		f := tb.addFlow(1, &fixedCC{cwnd: 20 * 1448}, tcp.Options{AckEvery: ackEvery})
		f.Conn.Start()
		tb.sim.Run(time.Second)
		return f.Receiver.Stats().AcksSent
	}
	perPkt := run(1)
	delayed := run(2)
	if delayed >= perPkt {
		t.Fatalf("delayed acks (%d) not fewer than per-packet acks (%d)", delayed, perPkt)
	}
}

func TestSetCwndFloorsAtOneMSS(t *testing.T) {
	tb := newTestbed(1, link8mbps())
	f := tb.addFlow(1, &fixedCC{cwnd: 10 * 1448}, tcp.Options{})
	f.Conn.Start()
	f.Conn.SetCwnd(0)
	if f.Conn.Cwnd() != 1448 {
		t.Fatalf("cwnd=%d, want one MSS", f.Conn.Cwnd())
	}
	tb.sim.Run(500 * time.Millisecond)
	if f.Receiver.Delivered() == 0 {
		t.Fatal("flow stalled at cwnd floor")
	}
}

func TestStopHaltsTransmission(t *testing.T) {
	tb := newTestbed(1, link8mbps())
	f := tb.addFlow(1, &fixedCC{cwnd: 10 * 1448}, tcp.Options{})
	f.Conn.Start()
	tb.sim.Run(500 * time.Millisecond)
	f.Conn.Stop()
	sent := f.Conn.Stats().PktsSent
	tb.sim.Run(time.Second)
	if got := f.Conn.Stats().PktsSent; got != sent {
		t.Fatalf("sent %d packets after Stop", got-sent)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	tb := newTestbed(1, link8mbps())
	f1 := tb.addFlow(1, cc.NewRenoCC(), tcp.Options{})
	f2 := tb.addFlow(2, cc.NewRenoCC(), tcp.Options{})
	f1.Conn.Start()
	f2.Conn.Start()
	tb.sim.Run(20 * time.Second)
	d1 := float64(f1.Receiver.Delivered())
	d2 := float64(f2.Receiver.Delivered())
	if d1 == 0 || d2 == 0 {
		t.Fatal("a flow starved completely")
	}
	// Jain fairness across the two flows should be reasonable.
	fairness := (d1 + d2) * (d1 + d2) / (2 * (d1*d1 + d2*d2))
	if fairness < 0.8 {
		t.Fatalf("fairness=%.2f (d1=%.0f d2=%.0f)", fairness, d1, d2)
	}
	// Combined they should utilize most of the link.
	util := tb.path.Forward.Utilization(20 * time.Second)
	if util < 0.7 {
		t.Fatalf("utilization=%.2f", util)
	}
}

func TestRenoSawtooth(t *testing.T) {
	tb := newTestbed(1, netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 12500}) // 1 BDP buffer
	f := tb.addFlow(1, cc.NewRenoCC(), tcp.Options{})
	f.Conn.Start()
	// Sample cwnd over time; expect growth and at least one halving.
	var cwnds []int
	for ms := 0; ms < 30000; ms += 100 {
		tb.sim.Run(time.Duration(ms) * time.Millisecond)
		cwnds = append(cwnds, f.Conn.Cwnd())
	}
	drops := 0
	for i := 1; i < len(cwnds); i++ {
		if cwnds[i] < cwnds[i-1]*2/3 {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no multiplicative decreases observed in 30s")
	}
	util := tb.path.Forward.Utilization(30 * time.Second)
	if util < 0.7 {
		t.Fatalf("Reno utilization=%.2f, want >= 0.7", util)
	}
}

func TestCubicUtilization(t *testing.T) {
	// Figure 3's configuration scaled down: 48 Mbit/s, 10 ms RTT, 1 BDP.
	bdp := int(48e6 / 8 * 0.010)
	tb := newTestbed(1, netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: bdp})
	f := tb.addFlow(1, nativecc.NewCubic(), tcp.Options{})
	f.Conn.Start()
	tb.sim.Run(30 * time.Second)
	util := tb.path.Forward.Utilization(30 * time.Second)
	if util < 0.85 {
		t.Fatalf("Cubic utilization=%.2f, want >= 0.85", util)
	}
}

func TestVegasKeepsQueueShort(t *testing.T) {
	link := netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20}
	tb := newTestbed(1, link)
	f := tb.addFlow(1, nativecc.NewVegas(), tcp.Options{})
	f.Conn.Start()
	tb.sim.Run(20 * time.Second)
	util := tb.path.Forward.Utilization(20 * time.Second)
	if util < 0.7 {
		t.Fatalf("Vegas utilization=%.2f", util)
	}
	// Vegas targets 2-4 queued packets; SRTT should stay near propagation.
	if srtt := f.Conn.SRTT(); srtt > 25*time.Millisecond {
		t.Fatalf("Vegas srtt=%v, queue not kept short", srtt)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, tcp.ConnStats) {
		tb := newTestbed(42, netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 8 * 1500, LossProb: 0.01})
		f := tb.addFlow(1, nativecc.NewCubic(), tcp.Options{})
		f.Conn.Start()
		tb.sim.Run(5 * time.Second)
		return f.Receiver.Delivered(), f.Conn.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("runs diverged: %d vs %d, %+v vs %+v", d1, d2, s1, s2)
	}
}
