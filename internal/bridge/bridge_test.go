package bridge_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

type echoAlg struct{ inits int }

func (e *echoAlg) Name() string { return "echo" }
func (e *echoAlg) Init(f *core.Flow) {
	e.inits++
	f.SetCwnd(4242)
}
func (e *echoAlg) OnMeasurement(f *core.Flow, m core.Measurement) {}
func (e *echoAlg) OnUrgent(f *core.Flow, u core.UrgentEvent)      {}

// copyMsg deep-copies m by the codec round trip.
func copyMsg(m proto.Msg) proto.Msg {
	b, err := proto.Marshal(m)
	if err == nil {
		m, err = proto.Unmarshal(b)
	}
	if err != nil {
		panic(err)
	}
	return m
}

// newAgent is the simulator's agent: a one-shard runtime that no serve loop
// drives, so the bridge's caller drains it.
func newAgent(t *testing.T, alg core.Alg) *runtime.Runtime {
	t.Helper()
	reg := core.NewRegistry()
	reg.Register("echo", func() core.Alg { return alg })
	rt, err := runtime.New(runtime.Config{Shards: 1, Agent: core.AgentConfig{Registry: reg, DefaultAlg: "echo"}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestBridgeDelaysByLatency(t *testing.T) {
	sim := netsim.New(1)
	alg := &echoAlg{}
	agent := newAgent(t, alg)
	b := bridge.New(sim, agent.HandleFrame, 100*time.Microsecond)

	var delivered []proto.Msg
	var deliveredAt []time.Duration
	send := b.TappedSender(func(m proto.Msg) {
		delivered = append(delivered, copyMsg(m)) // m is the bridge's decode scratch
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
	b := bridge.New(sim, agent.HandleFrame, time.Millisecond)
	b.SetLatency(time.Hour)
	send := b.TappedSender(func(m proto.Msg) {}, nil, nil)
	send(&proto.Create{SID: 1})
	sim.Run(time.Minute)
	if agent.Stats().Agent.FlowsCreated != 0 {
		t.Fatal("latency change not applied")
	}
}

// TestCorruptedFramesAreKilled flips each bit of a flow's Create on its way
// to the agent, and each bit of the SetCwnd its Init sends on its way back.
// Every flipped frame fails its check: the tap hears it killed, and neither
// the agent nor the datapath's delivery sees it.
func TestCorruptedFramesAreKilled(t *testing.T) {
	for _, toAgent := range []bool{true, false} {
		for bit := 0; ; bit++ {
			sim := netsim.New(1)
			agent := newAgent(t, &echoAlg{})
			b := bridge.New(sim, agent.HandleFrame, 100*time.Microsecond)
			flipped, killed, delivered := false, 0, 0
			tap := &bridge.Tap{
				Carry: func(frame []byte, next func([]byte)) {
					bad := append([]byte(nil), frame...)
					if flipped = bit < 8*len(bad); flipped {
						bad[bit/8] ^= 1 << (bit % 8)
					}
					next(bad)
				},
				Killed: func() { killed++ },
			}
			up, down := tap, (*bridge.Tap)(nil)
			if !toAgent {
				up, down = nil, tap
			}
			send := b.TappedSender(func(proto.Msg) { delivered++ }, up, down)
			if err := send(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480}); err != nil {
				t.Fatal(err)
			}
			sim.Run(time.Second)
			if !flipped {
				break
			}
			flows := agent.FlowCount()
			if killed != 1 || delivered != 0 || (toAgent && flows != 0) {
				t.Fatalf("to agent %v, bit %d flipped: %d killed, %d delivered, %d agent flows; want 1, 0, and no flow made",
					toAgent, bit, killed, delivered, flows)
			}
		}
	}
}
