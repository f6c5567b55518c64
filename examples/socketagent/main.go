// Socketagent: the deployment shape of the paper's Figure 1 — the agent and
// the datapath meet on a *real* Unix domain socket and speak the real wire
// protocol (Create/Measurement/Urgent up, Install/SetCwnd/SetRate down) over
// the shared-memory ring the agent hands out there, not the modelled bridge.
//
// The datapath here is still the simulated transport (we have no kernel
// module to load), but every control message genuinely crosses: the agent
// side is the call cmd/ccp-agent makes (a runtime.Runtime serving the
// listener), the datapath side a harness.SocketLink, and the simulation
// advances in small wall-clock slices, applying agent messages between
// slices.
//
//	go run ./examples/socketagent
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/tcp"
)

func main() {
	dir, err := os.MkdirTemp("", "ccp-socketagent-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sockPath := filepath.Join(dir, "ccp.sock")

	// The agent side: what cmd/ccp-agent runs.
	agent, err := runtime.New(runtime.Config{
		Shards: stdruntime.GOMAXPROCS(0),
		Agent:  core.AgentConfig{Registry: algorithms.NewRegistry(), DefaultAlg: "cubic"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	ln, err := ipc.ListenUnix(sockPath)
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- agent.Serve(ln) }()

	// The datapath side: a simulated flow whose CCP runtime speaks the wire
	// protocol over the socket.
	link := harness.NewSocketLink(harness.SocketLinkConfig{
		Dial: func() (*net.UnixConn, error) {
			return net.DialUnix("unix", nil, &net.UnixAddr{Name: sockPath, Net: "unix"})
		},
	})
	defer link.Close()
	for !link.Connected() {
		time.Sleep(time.Millisecond)
	}
	link.Pump() // the connect's resync pass, while there is no flow to replay

	sim := netsim.New(1)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	bottleneck := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: bottleneck}, fwd, rev)

	sent := 0
	dp := datapath.New(datapath.Config{
		SID:   1,
		Alg:   "cubic",
		Clock: sim,
		ToAgent: func(m proto.Msg) error {
			sent++
			return link.ToAgent(m)
		},
	})
	link.Attach(dp)
	flow := tcp.NewFlow(sim, 1, path, fwd, rev, dp, tcp.Options{})

	flow.Conn.Start()
	const (
		dur   = 10 * time.Second
		slice = 5 * time.Millisecond
	)
	for now := time.Duration(0); now < dur; now += slice {
		sim.Run(now + slice)
		// Apply what the agent has sent back, between simulation slices.
		link.Pump()
		// Let the agent goroutines breathe (they are truly concurrent).
		time.Sleep(50 * time.Microsecond)
	}
	// Stop the agent the way a signal stops ccp-agent: closing the listener
	// lets the serve loop finish its sweep and the shards answer.
	ln.Close()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	link.Pump()

	dst, ast := dp.Stats(), agent.Stats()
	fmt.Println("socketagent — agent and datapath speaking the real wire protocol over a ring handed out on a Unix socket")
	fmt.Println()
	fmt.Printf("socket path:            %s\n", sockPath)
	fmt.Printf("messages to agent:      %d\n", sent)
	fmt.Printf("messages from agent:    %d (installs applied: %d)\n",
		dst.InstallsRecvd+dst.SetCwndRecvd+dst.SetRateRecvd+dst.StaleCtrlDropped, dst.InstallsRecvd)
	fmt.Printf("goodput:                %.1f Mbit/s of %.0f available\n",
		float64(flow.Receiver.Delivered())*8/dur.Seconds()/1e6, bottleneck.RateBps/1e6)
	fmt.Printf("utilization:            %.1f%%\n", path.Forward.Utilization(dur)*100)
	fmt.Printf("agent flows / installs: %d flows, %d measurements (%d shard(s))\n",
		ast.Agent.FlowsCreated, ast.Agent.Measurements, agent.Shards())
}
