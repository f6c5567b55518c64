package bridge_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// TestALostInitInstallIsRecovered: Cubic's Init Install is lost on its way to
// the datapath, once on a fresh flow and once on a flow rebuilt from a resync
// Create, and the datapath runs Cubic's fold again within two reports, by a
// different way each time:
//   - fresh: the default program's report reaches Cubic, whose guard installs
//     its window again, by reference to the lost Install; the datapath
//     refuses the reference and names the default program, and the refusal
//     draws the whole program again (RefResends);
//   - rebuilt: the old incarnation's report is of an epoch the rebuilt flow
//     cannot name, and draws the whole program again (UnknownEpochs).
func TestALostInitInstallIsRecovered(t *testing.T) {
	for _, rebuilt := range []bool{false, true} {
		sim := netsim.New(1)
		agent := newAgent(t, algorithms.NewCubic())
		b := bridge.New(sim, agent.HandleFrame, 10*time.Microsecond)
		lose := !rebuilt // the fresh flow's Init Install is the first one down
		toDp := &bridge.Tap{Carry: func(frame []byte, next func([]byte)) {
			if lose && isType(frame, proto.TypeInstall) {
				lose = false
				return
			}
			next(append([]byte(nil), frame...))
		}}
		var dp *datapath.CCP
		cfg := datapath.Config{SID: 1, Clock: sim}
		cfg.ToAgent = b.TappedSender(func(m proto.Msg) { dp.Deliver(m) }, nil, toDp)
		dp = datapath.New(cfg)
		dp.Init(tcp.NewConn(sim, 1, nil, dp, tcp.Options{MSS: 1448}))
		runsCubic := func() bool {
			p := dp.Program()
			return p.Measure.Mode == lang.MeasureFold && p.Measure.Fold.Regs[2].Name == "dp_now"
		}
		sim.Run(sim.Now() + time.Millisecond)
		if !rebuilt && runsCubic() {
			t.Fatal("the fresh flow's Init Install was not lost")
		}
		if rebuilt {
			if !runsCubic() {
				t.Fatal("the first incarnation's Init Install did not land")
			}
			lose = true
			dp.Resync()
			sim.Run(sim.Now() + time.Millisecond)
			if lose || agent.Stats().Agent.FlowsCreated != 2 {
				t.Fatalf("the resync rebuilt no flow, or its Init Install went through: %+v", agent.Stats().Agent)
			}
		}
		sim.Run(sim.Now() + 202*time.Millisecond) // two reports: the programs wait 100 ms before the first RTT sample
		st := agent.Stats().Agent
		if !runsCubic() || (!rebuilt && st.RefResends != 1) || (rebuilt && st.UnknownEpochs == 0) {
			t.Fatalf("rebuilt=%v: the datapath runs %v; %+v", rebuilt, dp.Program().Measure.Mode, st)
		}
	}
}
