package runtime_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// TestServeRingsJoinAndLeave has datapaths join and leave the set Serve
// serves while others are mid-stream: each of eight meets the agent on its
// socket several times over, takes a ring, runs one flow's Create and
// reports through it, reads every reply back, and leaves — half the time
// closing its ring first, half the time only hanging up, as a crashed
// datapath does. Every reply must reach the ring of the flow it answers,
// every frame must be dispatched exactly once (a frame the serve loop failed
// to release would stall its ring and lose what followed), each ring's memory
// must be gone once the datapath opened it and its name once the datapath
// left, and an orderly stop must leave nothing beside the socket's path.
func TestServeRingsJoinAndLeave(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const datapaths, visits, reports = 8, 3, 20
			sock := filepath.Join(t.TempDir(), "agent.sock")
			rt, err := runtime.New(runtime.Config{Shards: shards, Agent: agentCfg(nil)})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			ln, err := ipc.ListenUnix(sock)
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- rt.Serve(ln) }()

			var wg sync.WaitGroup
			for d := 0; d < datapaths; d++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for v := 0; v < visits; v++ {
						if err := visit(sock, uint32(100*d+v+1), reports, v%2 == 0); err != nil {
							t.Errorf("datapath %d, visit %d: %v", d, v, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			// The agent removes a ring's name when it sees its datapath's
			// EOF.
			deadline := time.Now().Add(10 * time.Second)
			for {
				rings, _ := filepath.Glob(sock + ".ring*")
				if len(rings) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("ring names left after every datapath left: %v", rings)
				}
				time.Sleep(time.Millisecond)
			}
			ln.Close()
			if err := <-served; err != nil {
				t.Fatalf("Serve returned %v after its listener closed", err)
			}
			if left, _ := filepath.Glob(sock + "*"); len(left) != 0 {
				t.Fatalf("left beside the socket after an orderly stop: %v", left)
			}
			st := rt.Stats()
			const flows = datapaths * visits
			if st.Dispatched != flows*(reports+2) || st.DecodeErrors != 0 || st.ShutdownDropped != 0 {
				t.Fatalf("dispatched %d frames of %d: %+v", st.Dispatched, flows*(reports+2), st)
			}
			if st.Agent.FlowsCreated != flows || st.Agent.Measurements != flows*reports || st.Agent.FlowsClosed != flows {
				t.Fatalf("agent saw %d flows, %d reports and %d closes, want %d, %d and %d",
					st.Agent.FlowsCreated, st.Agent.Measurements, st.Agent.FlowsClosed, flows, flows*reports, flows)
			}
		})
	}
}

// visit is one datapath's stay with the agent at sock: it takes a ring, runs
// flow sid's Create, reports and Close through it, and reads back the reply to
// each Create and report. closeRing says whether it closes its ring before
// hanging up.
func visit(sock string, sid uint32, reports int, closeRing bool) error {
	conn, err := net.Dial("unix", sock)
	if err != nil {
		return err
	}
	defer conn.Close()
	// The rendezvous by hand (OpenRing's steps), to see the ring's memory.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	path, err := ipc.NewStream(conn).Recv()
	if err != nil {
		return err
	}
	backing, err := os.Readlink(string(path))
	if err != nil {
		return err
	}
	ring, err := shmring.Open(string(path), shmring.Options{})
	if err != nil {
		return err
	}
	if closeRing {
		defer ring.Close()
	}
	if _, err := os.Stat(backing); !os.IsNotExist(err) {
		return fmt.Errorf("ring memory %s still named after the datapath opened it (stat: %v)", backing, err)
	}
	msgs := []proto.Msg{&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480}}
	for seq := 1; seq <= reports; seq++ {
		msgs = append(msgs, &proto.Measurement{SID: sid, Seq: uint32(seq), Fields: []float64{float64(seq)}})
	}
	msgs = append(msgs, &proto.Close{SID: sid})
	for _, m := range msgs {
		data, err := proto.Marshal(m)
		if err != nil {
			return err
		}
		if err := ring.Send(data); err != nil {
			return err
		}
	}
	for n := 0; n < 1+reports; n++ {
		data, err := ring.Recv()
		if err != nil {
			return fmt.Errorf("reply %d: %w", n, err)
		}
		m, err := proto.Unmarshal(data)
		if err != nil {
			return fmt.Errorf("reply %d: %w", n, err)
		}
		if m.FlowSID() != sid {
			return fmt.Errorf("reply %d is for flow %d, on flow %d's ring", n, m.FlowSID(), sid)
		}
	}
	return nil
}
