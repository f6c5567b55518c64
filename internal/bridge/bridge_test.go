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
	send := b.DatapathSender(func(m proto.Msg) {
		delivered = append(delivered, proto.Clone(m)) // m is the bridge's decode scratch
		deliveredAt = append(deliveredAt, sim.Now())
	})

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

func TestBridgeStopDropsTraffic(t *testing.T) {
	sim := netsim.New(1)
	alg := &echoAlg{}
	agent := newAgent(t, alg)
	b := bridge.New(sim, agent, time.Microsecond)
	send := b.DatapathSender(func(m proto.Msg) {})
	b.Stop()
	if !b.Stopped() {
		t.Fatal("not stopped")
	}
	if err := send(&proto.Create{SID: 1}); err != nil {
		t.Fatalf("send on stopped bridge errored: %v", err)
	}
	sim.Run(time.Second)
	if alg.inits != 0 {
		t.Fatal("message delivered through stopped bridge")
	}
	b.Start()
	send(&proto.Create{SID: 2, MSS: 1448, InitCwnd: 14480})
	sim.Run(2 * time.Second)
	if alg.inits != 1 {
		t.Fatal("message not delivered after restart")
	}
}

func TestBridgeStopDiscardsInFlight(t *testing.T) {
	// Messages scheduled before Stop must not arrive after it: a killed
	// process loses its socket buffer, so a "crash" discards in-flight
	// deliveries even across a later restart.
	sim := netsim.New(1)
	alg := &echoAlg{}
	agent := newAgent(t, alg)
	b := bridge.New(sim, agent, 10*time.Millisecond)
	var delivered int
	send := b.DatapathSender(func(m proto.Msg) { delivered++ })

	send(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480}) // in flight at crash
	sim.Schedule(1*time.Millisecond, b.Stop)
	sim.Schedule(2*time.Millisecond, b.Start) // restart before delivery time
	sim.Run(time.Second)
	if alg.inits != 0 {
		t.Fatalf("in-flight message survived the crash (inits=%d)", alg.inits)
	}

	// The restarted bridge still carries traffic.
	send(&proto.Create{SID: 2, MSS: 1448, InitCwnd: 14480})
	sim.Run(2 * time.Second)
	if alg.inits != 1 {
		t.Fatal("message not delivered after restart")
	}
	if delivered == 0 {
		t.Fatal("no agent reply delivered after restart")
	}
}

func TestBridgeStopDiscardsInFlightReplies(t *testing.T) {
	// Same for the agent→datapath direction: a reply scheduled before the
	// crash must not reach the datapath afterwards.
	sim := netsim.New(1)
	alg := &echoAlg{}
	agent := newAgent(t, alg)
	b := bridge.New(sim, agent, 10*time.Millisecond)
	var delivered int
	send := b.DatapathSender(func(m proto.Msg) { delivered++ })

	send(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480})
	sim.Run(15 * time.Millisecond) // Create delivered; SetCwnd reply in flight
	if alg.inits != 1 || delivered != 0 {
		t.Fatalf("setup: inits=%d delivered=%d", alg.inits, delivered)
	}
	b.Stop()
	b.Start()
	sim.Run(time.Second)
	if delivered != 0 {
		t.Fatalf("in-flight reply survived the crash (delivered=%d)", delivered)
	}
}

func TestBridgeSetLatency(t *testing.T) {
	sim := netsim.New(1)
	agent := newAgent(t, &echoAlg{})
	b := bridge.New(sim, agent, time.Millisecond)
	b.SetLatency(time.Hour)
	send := b.DatapathSender(func(m proto.Msg) {})
	send(&proto.Create{SID: 1})
	sim.Run(time.Minute)
	if agent.Stats().FlowsCreated != 0 {
		t.Fatal("latency change not applied")
	}
}
