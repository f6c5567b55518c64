package core_test

import (
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// flowGrabber is an algorithm that does nothing but keep its flow.
type flowGrabber struct{ flow *core.Flow }

func (g *flowGrabber) Name() string                               { return "grab" }
func (g *flowGrabber) Init(f *core.Flow)                          { g.flow = f }
func (g *flowGrabber) OnMeasurement(*core.Flow, core.Measurement) {}
func (g *flowGrabber) OnUrgent(*core.Flow, core.UrgentEvent)      {}

// TestAllocsFlowInstall pins the agent's half of the per-report Install at
// what it keeps. Installing a built program allocates the wire bytes (kept
// for snapshots) and the Install message: validating it, twice over by then,
// allocates nothing. Building the program first, the way every bundled
// algorithm does per report, adds the program itself — Builder, Program,
// instruction list, and a box per instruction and per non-constant operand —
// and no list that grew under it.
func TestAllocsFlowInstall(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	grab := &flowGrabber{}
	reg := core.NewRegistry()
	reg.Register("grab", func() core.Alg { return grab })
	agent, err := core.NewAgent(core.AgentConfig{Registry: reg, DefaultAlg: "grab"})
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	agent.HandleMessage(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480},
		func(proto.Msg) error { sent++; return nil })
	flow := grab.flow

	for _, info := range algorithms.All() {
		if info.Name != "cubic" && info.Name != "vegas" {
			continue
		}
		progs, _ := core.Describe(info.Factory, 1448)
		if len(progs) == 0 {
			t.Fatalf("%s installs no program", info.Name)
		}
		p := progs[0]
		before := sent
		allocs := testing.AllocsPerRun(200, func() {
			if err := flow.Install(p); err != nil {
				t.Fatal(err)
			}
		})
		if sent-before < 200 {
			t.Fatalf("%s: installs were not sent", info.Name)
		}
		if allocs > 2 {
			t.Errorf("%s: Flow.Install allocated %.1f times, want <= 2", info.Name, allocs)
		}

		fold, cwnd := p.Measure.Fold, 14480.0
		allocs = testing.AllocsPerRun(200, func() {
			cwnd++
			err := flow.Install(lang.NewProgram().MeasureFold(fold).
				Cwnd(lang.C(cwnd)).WaitRtts(1).Report().MustBuild())
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("%s: build and Install allocated %.1f times, want <= 8", info.Name, allocs)
		}
		t.Logf("%s: build and Install: %.1f allocs", info.Name, allocs)
	}
}
