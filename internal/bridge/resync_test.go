package bridge_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// TestResyncedFlowNumbersAboveAnythingInFlight: an agent restarts while an
// Install of its old incarnation is still on the wire, the datapath resyncs,
// and that old Install lands after the resync Create has gone up. The flow
// the new agent builds from the Create must number its decisions above
// anything the old one could have had in flight, so its first whole Install
// applies — not dropped as stale, with every reference after it refused
// until an InstallErr makes the round trip, or, worse, referring to the old
// Install's measure half by the same sequence number.
func TestResyncedFlowNumbersAboveAnythingInFlight(t *testing.T) {
	sim := netsim.New(1)
	oldAlg, newAlg := &grabAlg{}, &grabAlg{}
	agent := newAgent(t, oldAlg)
	b := bridge.New(sim, func(frame []byte, reply func([]byte) error) error {
		return agent.HandleFrame(frame, reply)
	}, 10*time.Microsecond)
	var hold bool
	var down []held
	toDp := &bridge.Tap{
		Killed: func() { t.Error("a frame the test only held was refused by the decoder") },
		Carry: func(frame []byte, next func([]byte)) {
			c := append([]byte(nil), frame...)
			if hold && isType(c, proto.TypeInstall) {
				down = append(down, held{c, next})
				return
			}
			next(c)
		},
	}
	var dp *datapath.CCP
	cfg := datapath.Config{SID: 1, Clock: sim}
	cfg.ToAgent = b.TappedSender(func(m proto.Msg) { dp.Deliver(m) }, nil, toDp)
	dp = datapath.New(cfg)
	dp.Init(tcp.NewConn(sim, 1, nil, dp, tcp.Options{MSS: 1448}))
	pump := func() { sim.Run(sim.Now() + time.Millisecond) }
	pump()

	// The old incarnation runs fold a, then sends a whole Install of fold b
	// that is still on the wire when it dies.
	if err := oldAlg.flow.Install(foldProg("a", 20000)); err != nil {
		t.Fatal(err)
	}
	pump()
	hold = true
	if err := oldAlg.flow.Install(foldProg("b", 10000)); err != nil {
		t.Fatal(err)
	}
	pump()
	if len(down) != 1 {
		t.Fatalf("%d Installs held, want the old incarnation's one", len(down))
	}

	// A fresh agent; the datapath resyncs and the new agent builds the flow
	// cold from the Create. Then the old Install lands.
	agent = newAgent(t, newAlg)
	dp.Resync()
	pump()
	if newAlg.flow == nil {
		t.Fatal("the new agent never built the flow")
	}
	down[0].next(down[0].frame)
	pump()
	hold = false

	// The new flow's first Install goes whole, the next by reference.
	for _, cwnd := range []float64{20000, 21000} {
		if err := newAlg.flow.Install(foldProg("a", cwnd)); err != nil {
			t.Fatal(err)
		}
		pump()
	}
	st, ag := dp.Stats(), agent.Stats().Agent
	if st.StaleCtrlDropped != 0 || st.RefRefusals != 0 || ag.InstallErrs != 0 {
		t.Fatalf("the new flow's Installs were dropped as stale %d times and refused %d times (%d InstallErrs reached the agent)",
			st.StaleCtrlDropped, st.RefRefusals, ag.InstallErrs)
	}
	if st.InstallsByRef != 1 || ag.InstallsByRef != 1 {
		t.Fatalf("%d references applied of the agent's %d, want 1 of 1", st.InstallsByRef, ag.InstallsByRef)
	}
	want, _ := lang.MarshalProgram(newAlg.flow.Installed())
	got, _ := lang.MarshalProgram(dp.Program())
	if string(got) != string(want) {
		t.Fatalf("the datapath runs %s, the new agent holds %s", dp.Program(), newAlg.flow.Installed())
	}
}
