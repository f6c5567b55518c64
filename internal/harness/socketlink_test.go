package harness_test

import (
	"net"
	"path/filepath"
	stdruntime "runtime"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// agentProc is one "agent process" as cmd/ccp-agent runs it: a
// runtime.Runtime, GOMAXPROCS shards wide, serving datapaths that meet it on
// a Unix socket.
type agentProc struct {
	rt     *runtime.Runtime
	ln     *net.UnixListener
	served chan error
}

func startAgentProc(t *testing.T, sockPath string) *agentProc {
	t.Helper()
	rt, err := runtime.New(runtime.Config{
		Shards: stdruntime.GOMAXPROCS(0),
		Agent:  core.AgentConfig{Registry: algorithms.NewRegistry(), DefaultAlg: "cubic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := ipc.ListenUnix(sockPath)
	if err != nil {
		t.Fatal(err)
	}
	p := &agentProc{rt: rt, ln: ln, served: make(chan error, 1)}
	go func() { p.served <- rt.Serve(ln) }()
	return p
}

// agentStats reads the process's agent counters, summed over its shards.
func (p *agentProc) agentStats() core.AgentStats { return p.rt.Stats().Agent }

// kill stops the process: the listener closes, and every ring and accepted
// connection with it. It returns Serve's error.
func (p *agentProc) kill() error {
	p.ln.Close()
	err := <-p.served
	p.rt.Close()
	return err
}

// TestSocketLinkBoundsHungDial wedges the agent end of the rendezvous (a
// deadlocked listener that accepts and never hands back a ring): every
// attempt must be abandoned at the rendezvous timeout and its connection
// closed, and Close must return promptly with an attempt in flight — the
// regression this guards is an unbounded dial hanging the whole harness
// teardown.
func TestSocketLinkBoundsHungDial(t *testing.T) {
	sockPath := filepath.Join(t.TempDir(), "wedged.sock")
	ln, err := ipc.ListenUnix(sockPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The wedged agent accepts and says nothing; each connection it holds
	// reports when the link hangs up on it, if the test is still listening.
	hungUp := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				conn.Read(make([]byte, 1))
				conn.Close()
				select {
				case hungUp <- struct{}{}:
				case <-time.After(5 * time.Second):
				}
			}()
		}
	}()
	link := harness.NewSocketLinkWaits(harness.SocketLinkConfig{
		Dial: func() (net.Conn, error) { return net.Dial("unix", sockPath) },
	}, 10*time.Millisecond, time.Millisecond, 2*time.Millisecond)

	for i := 0; i < 2; i++ {
		select {
		case <-hungUp:
		case <-time.After(10 * time.Second):
			t.Fatal("a wedged rendezvous was never abandoned, or its connection was left open")
		}
	}
	if link.Connected() {
		t.Fatal("link claims connected with every rendezvous wedged")
	}

	done := make(chan struct{})
	go func() {
		link.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a wedged rendezvous")
	}
}

// TestSocketLinkSurvivesAgentRestart kills the agent process mid-run and
// starts a fresh one on the same socket. The SocketLink must redial on its
// own and resync the flow: the new agent — which has never seen the flow —
// re-adopts it from the replayed Create, re-installs its program, and the
// datapath leaves §5 fallback. No test code re-announces anything.
func TestSocketLinkSurvivesAgentRestart(t *testing.T) {
	sockPath := filepath.Join(t.TempDir(), "ccp.sock")
	proc1 := startAgentProc(t, sockPath)

	link := harness.NewSocketLinkWaits(harness.SocketLinkConfig{
		Dial: func() (net.Conn, error) { return net.Dial("unix", sockPath) },
	}, time.Second, 2*time.Millisecond, 20*time.Millisecond)
	defer link.Close()
	deadline := time.Now().Add(60 * time.Second)
	waitConnected := func() {
		t.Helper()
		for !link.Connected() {
			if time.Now().After(deadline) {
				t.Fatal("link never reconnected")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Connect, and let the connect's resync pass run while there is no flow to
	// replay: the flow's own Create is then the only one agent 1 sees.
	waitConnected()
	link.Pump()

	sim := netsim.New(1)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	lnk := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: lnk}, fwd, rev)

	dp := datapath.New(datapath.Config{
		SID:      1,
		Alg:      "cubic",
		Clock:    sim,
		ToAgent:  link.ToAgent,
		Liveness: datapath.LivenessConfig{StalenessBudget: 200 * time.Millisecond},
	})
	link.Attach(dp)
	flow := tcp.NewFlow(sim, 1, path, fwd, rev, dp, tcp.Options{})
	flow.Conn.Start()

	const slice = 5 * time.Millisecond
	runUntil := func(until time.Duration) {
		t.Helper()
		for now := sim.Now(); now < until; now += slice {
			if time.Now().After(deadline) {
				t.Fatal("wall-clock deadline exceeded")
			}
			sim.Run(now + slice)
			link.Pump()
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Phase 1: healthy run under agent 1.
	runUntil(1 * time.Second)
	if proc1.agentStats().FlowsCreated != 1 {
		t.Fatalf("agent1 flows=%d", proc1.agentStats().FlowsCreated)
	}
	if dp.Stats().InstallsRecvd == 0 {
		t.Fatal("agent1 never installed a program")
	}

	// Phase 2: the agent process dies. The flow keeps running; the sim keeps
	// advancing; the §5 fallback takes over as soon as the link reports the
	// connection lost, or else once the silence exceeds 200ms.
	proc1.kill()
	runUntil(2 * time.Second)
	if !dp.FallbackActive() {
		t.Fatal("fallback not active with the agent dead")
	}
	if st := dp.Stats(); st.AgentGoneSignals+st.LivenessStale == 0 {
		t.Fatalf("stats=%+v, want entry by a gone signal or by staleness", st)
	}

	// Phase 3: a fresh agent process appears on the same socket. The link
	// must reconnect and resync without any help.
	proc2 := startAgentProc(t, sockPath)
	defer proc2.kill()
	waitConnected()
	runUntil(4 * time.Second)

	if got := proc2.agentStats().FlowsCreated; got < 1 {
		t.Fatalf("agent2 never re-adopted the flow (flows=%d)", got)
	}
	if dp.FallbackActive() {
		t.Fatal("fallback still active after agent restart")
	}
	if st := dp.Stats(); st.FallbackOff == 0 || st.HandoffRamps != st.FallbackOff {
		t.Fatalf("fallback never deactivated, or left without a handoff ramp: %+v", st)
	}
	st := link.Stats()
	if st.Connects < 2 || st.Resyncs < 1 {
		t.Fatalf("link stats=%+v", st)
	}
	// The flow made progress in every phase.
	if u := path.Forward.Utilization(4 * time.Second); u < 0.5 {
		t.Fatalf("utilization %.3f across the agent restart", u)
	}
}
