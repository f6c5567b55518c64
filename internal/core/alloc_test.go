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

// grabbedFlowOf returns a fresh agent and a flow of it that sends through
// reply.
func grabbedFlowOf(t *testing.T, reply func(proto.Msg) error) (*core.Agent, *core.Flow) {
	t.Helper()
	grab := &flowGrabber{}
	reg := core.NewRegistry()
	reg.Register("grab", func() core.Alg { return grab })
	agent, err := core.NewAgent(core.AgentConfig{Registry: reg, DefaultAlg: "grab"})
	if err != nil {
		t.Fatal(err)
	}
	agent.HandleMessage(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480}, reply)
	return agent, grab.flow
}

// grabbedFlow returns a flow of a fresh agent, and a count of what it sends.
func grabbedFlow(t *testing.T) (*core.Flow, *int) {
	t.Helper()
	sent := new(int)
	_, flow := grabbedFlowOf(t, func(proto.Msg) error { *sent++; return nil })
	return flow, sent
}

// TestAllocsFlowDecision pins a direct decision at nothing: SetCwnd and
// SetRate fill the agent's scratch message and lend it to the send path.
func TestAllocsFlowDecision(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	flow, sent := grabbedFlow(t)
	cwnd := 14480
	for name, decide := range map[string]func() error{
		"SetCwnd": func() error { cwnd++; return flow.SetCwnd(cwnd) },
		"SetRate": func() error { cwnd++; return flow.SetRate(float64(cwnd)) },
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
// 248 bytes, in the 256-byte size class, since the per-agent block took over
// its verify mode and log sink (264, the 288-byte class, before) and a
// creation time nothing set went, and must not grow past that.
func TestFlowSize(t *testing.T) {
	const pinned = 248
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
//
// Both forms an Install crosses in are held to the same pins: by reference,
// when the measure half is the last whole Install's (the reference is encoded
// in the agent's scratch), and whole, provoked here by alternating two
// algorithms' programs so that no Install shares a half with the one before.
func TestAllocsFlowInstall(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var whole, byRef int
	agent, flow := grabbedFlowOf(t, func(m proto.Msg) error {
		if lang.IsRef(m.(*proto.Install).Prog) {
			byRef++
		} else {
			whole++
		}
		return nil
	})
	install := func(p *lang.Program) {
		if err := flow.Install(p); err != nil {
			t.Fatal(err)
		}
	}

	var progs []*lang.Program
	var names []string
	for _, info := range algorithms.All() {
		if info.Name != "cubic" && info.Name != "vegas" {
			continue
		}
		described, _ := core.Describe(info.Factory, 1448)
		if len(described) == 0 {
			t.Fatalf("%s installs no program", info.Name)
		}
		progs, names = append(progs, described[0]), append(names, info.Name)
	}
	if len(progs) != 2 {
		t.Fatalf("found %v, want cubic and vegas", names)
	}
	build := func(fold *lang.FoldSpec, cwnd float64) *lang.Program {
		return lang.NewProgram().MeasureFold(fold).Cwnd(lang.C(cwnd)).WaitRtts(1).Report().MustBuild()
	}

	for i, p := range progs {
		name := names[i]
		install(p) // whole: the half is new to the flow
		whole, byRef = 0, 0
		allocs := testing.AllocsPerRun(200, func() { install(p) })
		if allocs > 1 {
			t.Errorf("%s: Flow.Install by reference allocated %.1f times, want <= 1", name, allocs)
		}
		cwnd := 14480.0
		allocs = testing.AllocsPerRun(200, func() { cwnd++; install(build(p.Measure.Fold, cwnd)) })
		if allocs > 7 {
			t.Errorf("%s: build and Install by reference allocated %.1f times, want <= 7", name, allocs)
		}
		t.Logf("%s: build and Install by reference: %.1f allocs", name, allocs)
		if whole != 0 || byRef < 400 {
			t.Fatalf("%s: %d installs went whole and %d by reference, want none and all", name, whole, byRef)
		}
	}

	whole, byRef = 0, 0
	allocs := testing.AllocsPerRun(200, func() { install(progs[0]); install(progs[1]) })
	if allocs > 2 {
		t.Errorf("Flow.Install, whole, allocated %.1f times for two, want <= 2", allocs)
	}
	cwnd := 14480.0
	allocs = testing.AllocsPerRun(200, func() {
		cwnd++
		install(build(progs[0].Measure.Fold, cwnd))
		install(build(progs[1].Measure.Fold, cwnd))
	})
	if allocs > 14 {
		t.Errorf("build and Install, whole, allocated %.1f times for two, want <= 14", allocs)
	}
	t.Logf("build and Install, whole: %.1f allocs for two", allocs)
	if byRef != 0 || whole < 800 {
		t.Fatalf("%d installs went by reference and %d whole, want none and all", byRef, whole)
	}
	if st := agent.Stats(); st.InstallsByRef < 800 || st.RefResends != 0 {
		t.Fatalf("agent counted %d installs by reference, %d re-sends", st.InstallsByRef, st.RefResends)
	}
}
