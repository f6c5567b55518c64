package algorithms_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// run starts one CCP flow under alg on link and returns the harness and flow.
func run(t *testing.T, alg string, link netsim.LinkConfig, opts tcp.Options, dur time.Duration) (*harness.Net, *harness.CCPFlow) {
	t.Helper()
	net := harness.New(harness.Config{Link: link, DefaultAlg: "reno"})
	f := net.AddCCPFlow(1, alg, opts)
	f.Conn.Start()
	net.Run(dur)
	return net, f
}

// wan16 is a 16 Mbit/s, 10 ms RTT link with a 1 BDP buffer.
func wan16() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 20000}
}

// deepBuffer is the same link with an effectively infinite buffer.
func deepBuffer() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 22}
}

func TestCCPRenoUtilization(t *testing.T) {
	net, f := run(t, "reno", wan16(), tcp.Options{}, 30*time.Second)
	if u := net.Utilization(30 * time.Second); u < 0.7 {
		t.Fatalf("ccp reno utilization %.3f", u)
	}
	if f.DP.Stats().ReportsSent == 0 {
		t.Fatal("no measurement reports reached the agent path")
	}
	if net.Agent.Stats().Agent.Measurements == 0 {
		t.Fatal("agent saw no measurements")
	}
}

func TestCCPNewRenoUtilization(t *testing.T) {
	net, _ := run(t, "newreno", wan16(), tcp.Options{}, 30*time.Second)
	if u := net.Utilization(30 * time.Second); u < 0.7 {
		t.Fatalf("ccp newreno utilization %.3f", u)
	}
}

func TestCCPCubicUtilization(t *testing.T) {
	net, f := run(t, "cubic", wan16(), tcp.Options{}, 30*time.Second)
	if u := net.Utilization(30 * time.Second); u < 0.85 {
		t.Fatalf("ccp cubic utilization %.3f", u)
	}
	// Cubic uses a fold program; the agent must have received installs.
	if f.DP.Stats().InstallsRecvd == 0 {
		t.Fatal("no programs installed")
	}
}

func TestCCPVegasFoldLowDelay(t *testing.T) {
	net, f := run(t, "vegas", deepBuffer(), tcp.Options{}, 20*time.Second)
	if u := net.Utilization(20 * time.Second); u < 0.7 {
		t.Fatalf("ccp vegas utilization %.3f", u)
	}
	if srtt := f.Conn.SRTT(); srtt > 25*time.Millisecond {
		t.Fatalf("ccp vegas srtt %v — queue not controlled", srtt)
	}
}

func TestCCPVegasVectorLowDelay(t *testing.T) {
	net, f := run(t, "vegas-vector", deepBuffer(), tcp.Options{}, 20*time.Second)
	if u := net.Utilization(20 * time.Second); u < 0.7 {
		t.Fatalf("vegas-vector utilization %.3f", u)
	}
	if srtt := f.Conn.SRTT(); srtt > 25*time.Millisecond {
		t.Fatalf("vegas-vector srtt %v", srtt)
	}
	if f.DP.Stats().VectorsSent == 0 || f.DP.Stats().VectorRowsSent == 0 {
		t.Fatal("vector mode sent no vectors")
	}
	if net.Agent.Stats().Agent.Vectors == 0 {
		t.Fatal("agent saw no vectors")
	}
}

func TestVegasFoldAndVectorAgree(t *testing.T) {
	// §2.4: both batching styles implement the same algorithm; their
	// steady-state behaviour should match closely.
	run1 := func(alg string) (float64, time.Duration) {
		net, f := run(t, alg, deepBuffer(), tcp.Options{}, 20*time.Second)
		return net.Utilization(20 * time.Second), f.Conn.SRTT()
	}
	uFold, rttFold := run1("vegas")
	uVec, rttVec := run1("vegas-vector")
	if diff := uFold - uVec; diff > 0.1 || diff < -0.1 {
		t.Fatalf("utilization diverged: fold=%.3f vector=%.3f", uFold, uVec)
	}
	rttDiff := rttFold - rttVec
	if rttDiff < 0 {
		rttDiff = -rttDiff
	}
	if rttDiff > 5*time.Millisecond {
		t.Fatalf("srtt diverged: fold=%v vector=%v", rttFold, rttVec)
	}
}

func TestCCPDCTCPWithECN(t *testing.T) {
	link := netsim.LinkConfig{
		RateBps: 16e6, Delay: 5 * time.Millisecond,
		QueueBytes: 1 << 20, ECNThresholdBytes: 15000,
	}
	net := harness.New(harness.Config{Link: link})
	f := net.AddCCPFlow(1, "dctcp", tcp.Options{ECN: true})
	f.Conn.Start()
	net.Run(20 * time.Second)
	if u := net.Utilization(20 * time.Second); u < 0.75 {
		t.Fatalf("dctcp utilization %.3f", u)
	}
	// DCTCP holds the queue near the marking threshold: SRTT stays well
	// below what a loss-based scheme would build in this deep buffer.
	if srtt := f.Conn.SRTT(); srtt > 35*time.Millisecond {
		t.Fatalf("dctcp srtt %v — not reacting to ECN", srtt)
	}
	if f.Conn.Stats().ECNEchoes == 0 {
		t.Fatal("no ECN signal reached the sender")
	}
}

func TestCCPTimelyControlsDelay(t *testing.T) {
	net, f := run(t, "timely", deepBuffer(), tcp.Options{}, 30*time.Second)
	if u := net.Utilization(30 * time.Second); u < 0.5 {
		t.Fatalf("timely utilization %.3f", u)
	}
	if f.Conn.Stats().RateSetCalls == 0 {
		t.Fatal("timely never set a rate")
	}
	// Rate-based delay control: srtt bounded well below the deep buffer's
	// worst case (which would be seconds).
	if srtt := f.Conn.SRTT(); srtt > 60*time.Millisecond {
		t.Fatalf("timely srtt %v", srtt)
	}
}

func TestCCPPCCConverges(t *testing.T) {
	net, f := run(t, "pcc", wan16(), tcp.Options{}, 40*time.Second)
	if u := net.Utilization(40 * time.Second); u < 0.5 {
		t.Fatalf("pcc utilization %.3f", u)
	}
	if f.DP.Stats().InstallsRecvd < 5 {
		t.Fatalf("pcc installed only %d trial programs", f.DP.Stats().InstallsRecvd)
	}
}

func TestCCPBBRTracksBottleneck(t *testing.T) {
	net, f := run(t, "bbr", deepBuffer(), tcp.Options{}, 30*time.Second)
	u := net.Utilization(30 * time.Second)
	if u < 0.6 {
		t.Fatalf("bbr utilization %.3f", u)
	}
	// BBR paces; the pacing rate should be near the bottleneck (2e6 B/s).
	rate := f.Conn.PacingRate()
	if rate < 1e6 || rate > 4e6 {
		t.Fatalf("bbr pacing rate %.0f B/s, want ~2e6", rate)
	}
	// The pulse program must actually be installed (9 instructions + cap).
	if prog := f.DP.Program(); prog == nil || len(prog.Instrs) < 9 {
		t.Fatalf("bbr steady-state pulse program not installed: %v", f.DP.Program())
	}
}

func TestCCPXCPAdoptsRouterRate(t *testing.T) {
	link := netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20}
	net := harness.New(harness.Config{Link: link})
	netsim.NewFairStamper(net.Path.Forward)
	f := net.AddCCPFlow(1, "xcp", tcp.Options{})
	f.Conn.Start()
	net.Run(20 * time.Second)
	if u := net.Utilization(20 * time.Second); u < 0.6 {
		t.Fatalf("xcp utilization %.3f", u)
	}
	// The datapath adopted the router-stamped rate: ~2e6 B/s fair share.
	rate := f.Conn.PacingRate()
	if rate < 1e6 || rate > 2.6e6 {
		t.Fatalf("xcp pacing rate %.0f, want ≈2e6 (router fair share)", rate)
	}
}

func TestCCPXCPSharesFairly(t *testing.T) {
	link := netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20}
	net := harness.New(harness.Config{Link: link})
	netsim.NewFairStamper(net.Path.Forward)
	f1 := net.AddCCPFlow(1, "xcp", tcp.Options{})
	f2 := net.AddCCPFlow(2, "xcp", tcp.Options{})
	f1.Conn.Start()
	f2.Conn.Start()
	net.Run(20 * time.Second)
	d1 := float64(f1.Receiver.Delivered())
	d2 := float64(f2.Receiver.Delivered())
	fair := (d1 + d2) * (d1 + d2) / (2 * (d1*d1 + d2*d2))
	if fair < 0.9 {
		t.Fatalf("xcp fairness %.3f (d1=%.0f d2=%.0f)", fair, d1, d2)
	}
}

func TestCCPAIMDWorks(t *testing.T) {
	net, _ := run(t, "aimd", wan16(), tcp.Options{}, 20*time.Second)
	if u := net.Utilization(20 * time.Second); u < 0.6 {
		t.Fatalf("aimd utilization %.3f", u)
	}
}

func TestMultipleAlgorithmsOneHost(t *testing.T) {
	// §2: "it is possible to run multiple algorithms on the same host".
	link := netsim.LinkConfig{RateBps: 32e6, Delay: 5 * time.Millisecond, QueueBytes: 40000}
	net := harness.New(harness.Config{Link: link})
	fCubic := net.AddCCPFlow(1, "cubic", tcp.Options{})
	fReno := net.AddCCPFlow(2, "reno", tcp.Options{})
	fCubic.Conn.Start()
	fReno.Conn.Start()
	net.Run(30 * time.Second)
	if fCubic.Receiver.Delivered() == 0 || fReno.Receiver.Delivered() == 0 {
		t.Fatal("a flow starved")
	}
	if got := net.Agent.FlowCount(); got != 2 {
		t.Fatalf("agent tracks %d flows, want 2", got)
	}
	if u := net.Utilization(30 * time.Second); u < 0.75 {
		t.Fatalf("combined utilization %.3f", u)
	}
}

func TestRegistryCoversTable1(t *testing.T) {
	infos := algorithms.All()
	if len(infos) < 10 {
		t.Fatalf("only %d algorithms registered", len(infos))
	}
	names := map[string]bool{}
	for _, info := range infos {
		if names[info.Name] {
			t.Fatalf("duplicate algorithm %q", info.Name)
		}
		names[info.Name] = true
		if len(info.Measurements) == 0 || len(info.Controls) == 0 {
			t.Fatalf("%s: empty Table 1 metadata", info.Name)
		}
		if info.Factory == nil {
			t.Fatalf("%s: nil factory", info.Name)
		}
		alg := info.Factory()
		if alg.Name() != info.Name && info.Name != "vegas" { // fold variant keeps canonical name
			t.Fatalf("factory for %q built %q", info.Name, alg.Name())
		}
	}
	for _, want := range []string{"reno", "vegas", "cubic", "dctcp", "timely", "pcc", "bbr", "xcp"} {
		if !names[want] {
			t.Fatalf("Table 1 row %q missing", want)
		}
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	one := func() (int64, int64) {
		net, f := run(t, "cubic", wan16(), tcp.Options{}, 10*time.Second)
		return f.Receiver.Delivered(), net.Agent.Stats().Agent.Measurements
	}
	d1, m1 := one()
	d2, m2 := one()
	if d1 != d2 || m1 != m2 {
		t.Fatalf("CCP end-to-end not deterministic: (%d,%d) vs (%d,%d)", d1, m1, d2, m2)
	}
}
