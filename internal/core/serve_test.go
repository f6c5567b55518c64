package core_test

import (
	"path/filepath"
	"testing"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// cwndAlg answers a flow's Create with one SetCwnd.
type cwndAlg struct{}

func (cwndAlg) Name() string                               { return "cwnd" }
func (cwndAlg) Init(f *core.Flow)                          { f.SetCwnd(1000) }
func (cwndAlg) OnMeasurement(*core.Flow, core.Measurement) {}
func (cwndAlg) OnUrgent(*core.Flow, core.UrgentEvent)      {}

// TestServeTransport: a bare agent knows nothing of transports (this package
// does not import ipc outside its tests) and is served by the loop every
// proto.Handler is served by, runtime.ServeTransport: decisions come back on
// the wire, a malformed frame is skipped rather than fatal, and the loop ends
// with the receive error when the peer closes.
func TestServeTransport(t *testing.T) {
	reg := core.NewRegistry()
	reg.Register("cwnd", func() core.Alg { return cwndAlg{} })
	a, err := core.NewAgent(core.AgentConfig{Registry: reg, DefaultAlg: "cwnd"})
	if err != nil {
		t.Fatal(err)
	}
	agentSide, dpSide, err := shmring.Pair(filepath.Join(t.TempDir(), "ring"), shmring.Options{}, shmring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer agentSide.Close()
	done := make(chan error, 1)
	go func() { done <- runtime.ServeTransport(a, agentSide) }()

	if err := dpSide.Send([]byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	for _, sid := range []uint32{9, 10} { // the second proves the scratch is reused cleanly
		data, err := proto.Marshal(&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480, SrcAddr: "a", DstAddr: "b"})
		if err != nil {
			t.Fatal(err)
		}
		if err := dpSide.Send(data); err != nil {
			t.Fatal(err)
		}
		reply, err := dpSide.Recv()
		if err != nil {
			t.Fatal(err)
		}
		m, err := proto.Unmarshal(reply)
		if err != nil {
			t.Fatal(err)
		}
		if sc, ok := m.(*proto.SetCwnd); !ok || sc.Bytes != 1000 || sc.SID != sid {
			t.Fatalf("reply=%#v", m)
		}
	}
	dpSide.Close()
	if err := <-done; err == nil {
		t.Fatal("ServeTransport should return an error when the peer closes")
	}
	if st := a.Stats(); st.FlowsCreated != 2 || st.Errors != 0 {
		t.Fatalf("agent stats %+v: want two flows, and no error for a frame that never reached it", st)
	}
}
