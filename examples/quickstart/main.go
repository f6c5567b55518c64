// Quickstart: run one CCP-controlled flow over a simulated WAN path.
//
// This example assembles the whole architecture of the paper's Figure 1 in
// one process: a simulated TCP datapath, the CCP datapath runtime embedded
// in it, the user-space agent running the Cubic algorithm, and a modelled
// IPC channel between them — then prints the congestion window evolution
// and a run summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/tcp"
	"github.com/ccp-repro/ccp/internal/trace"
)

func main() {
	// A 48 Mbit/s bottleneck with a 10 ms round trip and one
	// bandwidth-delay product of buffer — a typical WAN path.
	const (
		rate = 48e6
		rtt  = 10 * time.Millisecond
	)
	net := harness.New(harness.Config{
		Link: netsim.LinkConfig{
			RateBps:    rate,
			Delay:      rtt / 2,
			QueueBytes: harness.BDPBytes(rate, rtt),
		},
		IPCLatency: 25 * time.Microsecond, // ≈ measured Unix-socket RTT/2
	})

	// One flow whose congestion control runs in the user-space agent.
	flow := net.AddCCPFlow(1, "cubic", tcp.Options{})

	// Sample the congestion window as the simulation runs.
	cwnd := trace.NewSeries("cwnd", "bytes")
	var tick func()
	tick = func() {
		cwnd.Add(net.Sim.Now(), float64(flow.Conn.Cwnd()))
		net.Sim.Schedule(50*time.Millisecond, tick)
	}
	net.Sim.Schedule(0, tick)

	flow.Conn.Start()
	const dur = 20 * time.Second
	net.Run(dur)

	fmt.Println("CCP quickstart — Cubic congestion control running off the datapath")
	fmt.Println()
	fmt.Print(cwnd.ASCII(72, 12))
	fmt.Println()
	fmt.Printf("link utilization:   %.1f%%\n", net.Utilization(dur)*100)
	fmt.Printf("goodput:            %.1f Mbit/s\n",
		float64(flow.Receiver.Delivered())*8/dur.Seconds()/1e6)
	fmt.Printf("smoothed RTT:       %v (propagation %v)\n", flow.Conn.SRTT(), rtt)
	fmt.Printf("agent measurements: %d (batched ~2x per RTT)\n", net.Agent.Stats().Agent.Measurements)
	fmt.Printf("urgent events:      %d\n", net.Agent.Stats().Agent.Urgents)
	fmt.Printf("programs installed: %d\n", flow.DP.Stats().InstallsRecvd)
}
