package harness_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/nativecc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/tcp"
)

func link() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 20000}
}

func TestDefaultsApplied(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	f := net.AddCCPFlow(1, "", tcp.Options{}) // agent default (cubic)
	f.Conn.Start()
	net.Run(5 * time.Second)
	if net.Utilization(5*time.Second) < 0.6 {
		t.Fatalf("default deployment underperforms: %.3f", net.Utilization(5*time.Second))
	}
	if net.Agent.Stats().Agent.FlowsCreated != 1 {
		t.Fatal("flow not announced to agent")
	}
}

func TestMixedNativeAndCCPFlows(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	ccp := net.AddCCPFlow(1, "cubic", tcp.Options{})
	nat := net.AddNativeFlow(2, nativecc.NewCubic(), tcp.Options{})
	ccp.Conn.Start()
	nat.Conn.Start()
	net.Run(10 * time.Second)
	if ccp.Receiver.Delivered() == 0 || nat.Receiver.Delivered() == 0 {
		t.Fatal("a flow starved")
	}
}

func TestStartStopAt(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	f := net.AddNativeFlow(1, nativecc.NewRenoCC(), tcp.Options{})
	net.StartAt(f, 2*time.Second)
	net.StopAt(f, 4*time.Second)
	net.Run(time.Second)
	if f.Conn.Stats().PktsSent != 0 {
		t.Fatal("flow sent before StartAt")
	}
	net.Run(6 * time.Second)
	sent := f.Conn.Stats().PktsSent
	if sent == 0 {
		t.Fatal("flow never started")
	}
	net.Run(8 * time.Second)
	if f.Conn.Stats().PktsSent != sent {
		t.Fatal("flow sent after StopAt")
	}
}

func TestSIDsAreUnique(t *testing.T) {
	net := harness.New(harness.Config{Link: link()})
	net.AddCCPFlow(1, "reno", tcp.Options{})
	net.AddCCPFlow(2, "reno", tcp.Options{})
	f1 := net.AddCCPFlow(3, "reno", tcp.Options{})
	f1.Conn.Start()
	net.Run(time.Second)
	// Three creates with distinct SIDs: the agent tracks all of them even
	// though only one started (Create is sent at Start; only f1 started).
	if got := net.Agent.Stats().Agent.FlowsCreated; got != 1 {
		t.Fatalf("creates=%d, want 1 (only started flows announce)", got)
	}
}

func TestPolicyPlumbed(t *testing.T) {
	policy := func(info core.FlowInfo) core.Policy {
		return core.Policy{MaxRateBps: 100e3}
	}
	net := harness.New(harness.Config{Link: link(), Policy: policy})
	f := net.AddCCPFlow(1, "timely", tcp.Options{}) // rate-based algorithm
	f.Conn.Start()
	dur := 10 * time.Second
	net.Run(dur)
	goodput := float64(f.Receiver.Delivered()) / dur.Seconds()
	if goodput > 130e3 {
		t.Fatalf("policy cap ignored: %.0f B/s", goodput)
	}
}

func TestHelpers(t *testing.T) {
	if harness.BDPBytes(1e9, 10*time.Millisecond) != 1250000 {
		t.Fatal("BDP helper wrong")
	}
}
