package bridge_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"

	"github.com/ccp-repro/ccp/internal/netsim"
)

type echoAlg struct{ inits int }

func (e *echoAlg) Name() string { return "echo" }
func (e *echoAlg) Init(f *core.Flow) {
	e.inits++
	f.SetCwnd(4242)
}
func (e *echoAlg) OnMeasurement(f *core.Flow, m core.Measurement) {}
func (e *echoAlg) OnUrgent(f *core.Flow, u core.UrgentEvent)      {}

func newAgent(t *testing.T, alg core.Alg) *core.Agent {
	t.Helper()
	reg := core.NewRegistry()
	reg.Register("echo", func() core.Alg { return alg })
	a, err := core.NewAgent(core.AgentConfig{Registry: reg, DefaultAlg: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBridgeDelaysByLatency(t *testing.T) {
	sim := netsim.New(1)
	alg := &echoAlg{}
	agent := newAgent(t, alg)
	b := bridge.New(sim, agent, 100*time.Microsecond)

	var delivered []proto.Msg
	var deliveredAt []time.Duration
	send := b.TappedSender(func(m proto.Msg) {
		delivered = append(delivered, proto.Clone(m)) // m is the bridge's decode scratch
		deliveredAt = append(deliveredAt, sim.Now())
	}, nil, nil)

	if err := send(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480}); err != nil {
		t.Fatal(err)
	}
	if alg.inits != 0 {
		t.Fatal("message arrived synchronously")
	}
	sim.Run(time.Second)
	if alg.inits != 1 {
		t.Fatal("create not delivered")
	}
	// The agent's SetCwnd reply must arrive after 2x the one-way latency.
	if len(delivered) != 1 {
		t.Fatalf("replies=%d", len(delivered))
	}
	if sc, ok := delivered[0].(*proto.SetCwnd); !ok || sc.Bytes != 4242 {
		t.Fatalf("reply=%#v", delivered[0])
	}
	if deliveredAt[0] != 200*time.Microsecond {
		t.Fatalf("reply at %v, want 200µs", deliveredAt[0])
	}
	st := b.Stats()
	if st.ToAgentMsgs != 1 || st.ToDpMsgs != 1 || st.ToAgentBytes == 0 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestBridgeSetLatency(t *testing.T) {
	sim := netsim.New(1)
	agent := newAgent(t, &echoAlg{})
	b := bridge.New(sim, agent, time.Millisecond)
	b.SetLatency(time.Hour)
	send := b.TappedSender(func(m proto.Msg) {}, nil, nil)
	send(&proto.Create{SID: 1})
	sim.Run(time.Minute)
	if agent.Stats().FlowsCreated != 0 {
		t.Fatal("latency change not applied")
	}
}
