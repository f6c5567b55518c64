package runtime_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// TestServeSetMultiplexesConnections drives several shared-memory datapath
// connections through one ServeSet goroutine: every connection's flows must
// be processed and every reply must come back on the connection that owns
// the flow (no cross-wiring), in both inline and sharded dispatch modes.
// Every report is answered, none dropped, and the one frame that does not
// decode is counted as that and nothing else.
func TestServeSetMultiplexesConnections(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const conns, flows, reports = 4, 2, 10
			dir := t.TempDir()
			mux, err := shmring.NewMux(filepath.Join(dir, "mux.bell"))
			if err != nil {
				t.Fatal(err)
			}
			defer mux.Close()
			dp := make([]ipc.Transport, conns)
			for i := 0; i < conns; i++ {
				a, b, err := shmring.Pair(filepath.Join(dir, fmt.Sprintf("ring%d", i)),
					shmring.Options{}, shmring.Options{Bell: mux.Bell()})
				if err != nil {
					t.Fatal(err)
				}
				if err := mux.Adopt(b); err != nil {
					t.Fatal(err)
				}
				dp[i] = a
				defer a.Close()
				defer b.Close()
			}
			rt, err := runtime.New(runtime.Config{Shards: shards, Agent: agentCfg(nil)})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			served := make(chan error, 1)
			go func() { served <- rt.ServeSet(mux) }()

			// Each connection owns SIDs ci*100+1 ... ci*100+flows.
			for ci, d := range dp {
				for f := 1; f <= flows; f++ {
					sid := uint32(ci*100 + f)
					send(t, d, &proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480})
					for seq := uint32(1); seq <= reports; seq++ {
						send(t, d, &proto.Measurement{SID: sid, Seq: seq, Fields: []float64{float64(seq), 0, 0, 0, 0, 0, 0}})
					}
				}
				if ci == 0 {
					if err := d.Send([]byte{0xFF, 0xFF}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// One SetCwnd per Create (echoAlg.Init) plus one per Measurement.
			const wantReplies = flows * (1 + reports)
			for ci, d := range dp {
				lo, hi := uint32(ci*100+1), uint32(ci*100+flows)
				for n := 0; n < wantReplies; n++ {
					m := recvMsg(t, d, ci, n)
					if sid := m.FlowSID(); sid < lo || sid > hi {
						t.Fatalf("conn %d received reply for SID %d (owns %d..%d): cross-wired reply",
							ci, sid, lo, hi)
					}
				}
			}
			// Closing the agent-side endpoints winds the loop down.
			for _, tr := range mux.Transports() {
				tr.Close()
			}
			select {
			case err := <-served:
				if err != nil && !errors.Is(err, ipc.ErrClosed) {
					t.Fatalf("ServeSet returned %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("ServeSet did not return after all endpoints closed")
			}
			st := rt.Stats()
			if want := int64(conns * flows * (1 + reports)); st.Dispatched != want {
				t.Fatalf("dispatched %d messages, want %d", st.Dispatched, want)
			}
			if want := int64(conns * flows * reports); st.Agent.Measurements != want ||
				st.ShutdownDropped != 0 || st.Agent.StaleReports != 0 {
				t.Fatalf("answered %d of %d reports: %+v", st.Agent.Measurements, want, st)
			}
			if st.DecodeErrors != 1 {
				t.Fatalf("decode errors = %d, want the one 0xFF 0xFF frame", st.DecodeErrors)
			}
		})
	}
}

// TestServeSetRejectsUnpollable pins the error contract for transports that
// cannot be polled (no TryRecvFrame), such as a stream.
func TestServeSetRejectsUnpollable(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	a := ipc.NewStream(c1)
	defer a.Close()
	rt, err := runtime.New(runtime.Config{Shards: 1, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.ServeSet(staticSet{a}); err == nil {
		t.Fatal("ServeSet accepted a transport without TryRecvFrame")
	}
}

type staticSet []ipc.Transport

func (s staticSet) Transports() []ipc.Transport { return s }
func (s staticSet) WaitAny() error              { return nil }

func send(t *testing.T, tr ipc.Transport, m proto.Msg) {
	t.Helper()
	data, err := proto.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(data); err != nil {
		t.Fatal(err)
	}
}

func recvMsg(t *testing.T, tr ipc.Transport, ci, n int) proto.Msg {
	t.Helper()
	data, err := tr.Recv()
	if err != nil {
		t.Fatalf("conn %d reply %d: %v", ci, n, err)
	}
	m, err := proto.Unmarshal(data)
	if err != nil {
		t.Fatalf("conn %d reply %d: %v", ci, n, err)
	}
	return m
}
