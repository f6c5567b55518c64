package core_test

import (
	"testing"
	"unsafe"

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

// grabbedFlow returns a flow of a fresh agent, and a count of what it sends.
func grabbedFlow(t *testing.T) (*core.Flow, *int) {
	t.Helper()
	grab := &flowGrabber{}
	reg := core.NewRegistry()
	reg.Register("grab", func() core.Alg { return grab })
	agent, err := core.NewAgent(core.AgentConfig{Registry: reg, DefaultAlg: "grab"})
	if err != nil {
		t.Fatal(err)
	}
	sent := new(int)
	agent.HandleMessage(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480},
		func(proto.Msg) error { *sent++; return nil })
	return grab.flow, sent
}

// TestAllocsFlowDecision pins a direct decision at nothing: SetCwnd, SetRate
// and Backoff fill the agent's scratch message and lend it to the send path.
func TestAllocsFlowDecision(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	flow, sent := grabbedFlow(t)
	cwnd := 14480
	for name, decide := range map[string]func() error{
		"SetCwnd": func() error { cwnd++; return flow.SetCwnd(cwnd) },
		"SetRate": func() error { cwnd++; return flow.SetRate(float64(cwnd)) },
		"Backoff": func() error { return flow.Backoff(2) },
	} {
		before := *sent
		allocs := testing.AllocsPerRun(1000, func() {
			if err := decide(); err != nil {
				t.Fatal(err)
			}
		})
		if *sent-before < 1000 {
			t.Fatalf("%s: decisions were not sent", name)
		}
		if allocs != 0 {
			t.Errorf("%s allocated %.1f times per decision, want 0", name, allocs)
		}
	}
}

// TestFlowSize keeps the per-flow cost of the agent from creeping: a Flow is
// 256 bytes, a size class of its own, since the per-agent block took over its
// verify mode and log sink (264, the 288-byte class, before), and must not
// grow past that.
func TestFlowSize(t *testing.T) {
	const pinned = 256
	if got := unsafe.Sizeof(core.Flow{}); got > pinned {
		t.Fatalf("core.Flow is %d bytes, was %d: what was added belongs in the per-agent block", got, pinned)
	}
}

// TestAllocsFlowInstall pins the agent's half of the per-report Install at
// what it keeps. Installing a built program allocates the wire bytes (kept
// for snapshots) and nothing else: the Install message is the agent's
// scratch, and validating the program, twice over by then, allocates
// nothing. Building the program first, the way every bundled algorithm does
// per report, adds the program itself — Builder, Program, instruction list,
// and a box per instruction and per non-constant operand — and no list that
// grew under it.
func TestAllocsFlowInstall(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	flow, sent := grabbedFlow(t)

	for _, info := range algorithms.All() {
		if info.Name != "cubic" && info.Name != "vegas" {
			continue
		}
		progs, _ := core.Describe(info.Factory, 1448)
		if len(progs) == 0 {
			t.Fatalf("%s installs no program", info.Name)
		}
		p := progs[0]
		before := *sent
		allocs := testing.AllocsPerRun(200, func() {
			if err := flow.Install(p); err != nil {
				t.Fatal(err)
			}
		})
		if *sent-before < 200 {
			t.Fatalf("%s: installs were not sent", info.Name)
		}
		if allocs > 1 {
			t.Errorf("%s: Flow.Install allocated %.1f times, want <= 1", info.Name, allocs)
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
		if allocs > 7 {
			t.Errorf("%s: build and Install allocated %.1f times, want <= 7", info.Name, allocs)
		}
		t.Logf("%s: build and Install: %.1f allocs", info.Name, allocs)
	}
}
