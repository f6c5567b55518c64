package harness_test

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// TestAgentOverRealUnixSocket is the full Figure 1 deployment as an
// automated test: the agent listens on a real Unix socket and serves the wire
// protocol over the shared-memory ring it hands each datapath there
// (startAgentProc: the runtime and Serve call cmd/ccp-agent makes), the
// simulated datapath's CCP runtime reaches it through a SocketLink, and the
// simulation advances in wall-clock slices with agent replies pumped back in
// between. An orderly stop leaves nothing beside the socket's path.
func TestAgentOverRealUnixSocket(t *testing.T) {
	sockPath := filepath.Join(t.TempDir(), "ccp.sock")
	proc := startAgentProc(t, sockPath)

	link := harness.NewSocketLink(harness.SocketLinkConfig{
		Dial: dial(sockPath),
	})
	defer link.Close()
	deadline := time.Now().Add(30 * time.Second)
	for !link.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("link never connected")
		}
		time.Sleep(time.Millisecond)
	}
	link.Pump() // the connect's resync pass, while there is no flow to replay

	sim := netsim.New(1)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	bottleneck := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: bottleneck}, fwd, rev)

	dp := datapath.New(datapath.Config{SID: 1, Alg: "cubic", Clock: sim, ToAgent: link.ToAgent})
	link.Attach(dp)
	flow := tcp.NewFlow(sim, 1, path, fwd, rev, dp, tcp.Options{})

	flow.Conn.Start()
	const (
		dur   = 4 * time.Second
		slice = 5 * time.Millisecond
	)
	for now := time.Duration(0); now < dur; now += slice {
		if time.Now().After(deadline) {
			t.Fatal("wall-clock deadline exceeded")
		}
		sim.Run(now + slice)
		link.Pump()
		time.Sleep(100 * time.Microsecond)
	}

	st := proc.agentStats()
	if st.FlowsCreated != 1 {
		t.Fatalf("agent flows=%d", st.FlowsCreated)
	}
	if st.Measurements == 0 {
		t.Fatal("no measurements crossed the socket")
	}
	if ls := link.Stats(); ls.DecodeErrors != 0 || ls.UnknownSID != 0 {
		t.Fatalf("bad reply frames: %+v", ls)
	}
	if dst := dp.Stats(); dst.InstallsRecvd == 0 {
		t.Fatalf("no agent control crossed back: %+v", dst)
	}
	if u := path.Forward.Utilization(dur); u < 0.5 {
		t.Fatalf("utilization %.3f with socket-attached agent", u)
	}
	// An orderly stop: Serve reports a closed listener as a clean exit, and
	// nothing the agent received failed to decode.
	if err := proc.kill(); err != nil {
		t.Fatalf("Serve returned %v after its listener closed", err)
	}
	if n := proc.rt.Stats().DecodeErrors; n != 0 {
		t.Fatalf("%d frames from the datapath did not decode", n)
	}
	if left, _ := filepath.Glob(sockPath + "*"); len(left) != 0 {
		t.Fatalf("left beside the socket after an orderly stop: %v", left)
	}
}
