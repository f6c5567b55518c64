package harness_test

import (
	"net"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
)

// pairLink connects a SocketLink to a stand-in agent that hands it one ring,
// as Runtime.Serve does, and returns the agent's end of that ring for the
// test to write into. The stand-in takes one connection: redials fail fast.
func pairLink(t *testing.T) (*harness.SocketLink, ipc.Transport) {
	t.Helper()
	sockPath := filepath.Join(t.TempDir(), "agent.sock")
	ln, err := ipc.ListenUnix(sockPath)
	if err != nil {
		t.Fatal(err)
	}
	type agentEnd struct {
		conn *net.UnixConn
		ring *shmring.Endpoint
		err  error
	}
	accepted := make(chan agentEnd, 1)
	go func() {
		conn, err := ln.AcceptUnix()
		ln.Close()
		if err != nil {
			accepted <- agentEnd{err: err}
			return
		}
		name := sockPath + ".ring0"
		ring, f, err := shmring.Create(name, shmring.Options{})
		if err == nil {
			_, _, err = conn.WriteMsgUnix([]byte(name), syscall.UnixRights(int(f.Fd())), nil)
			f.Close()
		}
		accepted <- agentEnd{conn, ring, err}
	}()
	link := harness.NewSocketLinkWaits(harness.SocketLinkConfig{
		Dial: dial(sockPath),
	}, time.Second, time.Millisecond, 10*time.Millisecond)
	t.Cleanup(func() { link.Close() })
	a := <-accepted
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { a.ring.Close(); a.conn.Close() })
	for !link.Connected() {
		time.Sleep(time.Millisecond)
	}
	return link, a.ring
}

func sendMsg(t *testing.T, tr ipc.Transport, m proto.Msg) {
	t.Helper()
	data, err := proto.Marshal(m)
	if err != nil {
		t.Error(err) // may run off the test goroutine: no Fatal
		return
	}
	if err := tr.Send(data); err != nil {
		t.Error(err)
	}
}

// attachDP builds a minimal datapath runtime (no connection) that can still
// receive Deliver calls and count them.
func attachDP(link *harness.SocketLink, sim *netsim.Sim, sid uint32) *datapath.CCP {
	dp := datapath.New(datapath.Config{
		SID:     sid,
		Clock:   sim,
		ToAgent: link.ToAgent,
	})
	link.Attach(dp)
	return dp
}

// TestSocketLinkConcurrentRingAndPump hammers the link from three sides at
// once — the agent filling the ring (and held back while it is full), Pump
// draining it, and flows sending ToAgent — to give the race detector
// something to chew on (the make check -race run covers this path).
func TestSocketLinkConcurrentRingAndPump(t *testing.T) {
	link, agentSide := pairLink(t)
	sim := netsim.New(1)
	const flows = 8
	dps := make([]*datapath.CCP, flows)
	for i := range dps {
		dps[i] = attachDP(link, sim, uint32(i+1))
	}

	const perFlow = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Agent side: decisions interleaved across flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint32(1); seq <= perFlow; seq++ {
			for sid := uint32(1); sid <= flows; sid++ {
				sendMsg(t, agentSide, &proto.SetCwnd{SID: sid, Seq: seq, Bytes: uint32(seq) * 100})
			}
		}
	}()

	// Datapath side: concurrent ToAgent traffic and stats reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = link.ToAgent(&proto.Measurement{SID: uint32(i%flows + 1), Seq: uint32(i + 1), Fields: make([]float64, 7)})
			_ = link.Stats()
			_ = link.Connected()
		}
	}()

	// Agent side must also drain what the datapaths send, or the ring fills.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := agentSide.Recv(); err != nil {
				return
			}
		}
	}()

	want := flows * perFlow
	deadline := time.Now().Add(30 * time.Second)
	total := func() int {
		n := 0
		for _, dp := range dps {
			n += dp.Stats().SetCwndRecvd
		}
		return n
	}
	for total() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d (link stats=%+v)", total(), want, link.Stats())
		}
		link.Pump()
	}
	close(stop)
	if st := link.Stats(); st.UnknownSID != 0 || st.DecodeErrors != 0 {
		t.Fatalf("link stats=%+v", st)
	}
	// Per-flow control sequence: each flow applied exactly perFlow decisions
	// in order (none stale, none lost).
	for i, dp := range dps {
		if got := dp.Stats().SetCwndRecvd; got != perFlow {
			t.Fatalf("flow %d applied %d/%d decisions", i+1, got, perFlow)
		}
		if dp.Stats().StaleCtrlDropped != 0 {
			t.Fatalf("flow %d saw reordered control: %+v", i+1, dp.Stats())
		}
	}
	link.Close()
	wg.Wait()
}
