package bridge_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// grabAlg keeps its flow so the test can install on it as an algorithm would,
// and the names of the newest report it was handed.
type grabAlg struct {
	flow    *core.Flow
	reports int
	named   []string
}

func (g *grabAlg) Name() string      { return "echo" }
func (g *grabAlg) Init(f *core.Flow) { g.flow = f }
func (g *grabAlg) OnMeasurement(_ *core.Flow, m core.Measurement) {
	g.reports++
	g.named = m.Names
}
func (g *grabAlg) OnUrgent(*core.Flow, core.UrgentEvent) {}

// foldProg is a program over a one-register fold named reg; programs over
// the fold "a" carry windows of 20000 and up, programs over "b" below that,
// so a control half running over the other's measure half shows.
func foldProg(reg string, cwnd float64) *lang.Program {
	return lang.NewProgram().MeasureFold(&lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: reg}},
		Updates: []lang.Assign{{Dst: reg, E: lang.Add(lang.V(reg), lang.V("pkt.acked"))}},
	}).Cwnd(lang.C(cwnd)).WaitRtts(1).Report().MustBuild()
}

// held is a frame a tap kept back, and the way on for it.
type held struct {
	frame []byte
	next  func([]byte)
}

// refRig is a real agent flow and a real datapath flow joined by a bridge
// whose wire the test holds: once hold is set, Installs going down and
// InstallErrs going up wait in down and up until the test sends them on.
type refRig struct {
	t        *testing.T
	sim      *netsim.Sim
	agent    *runtime.Runtime
	alg      *grabAlg
	flow     *core.Flow
	dp       *datapath.CCP
	hold     bool
	loseErrs bool
	down, up []held
	errsSeen int // InstallErrs that reached the agent
	// folded names the values of the newest report the datapath sent: the
	// registers of the fold it ran, or the EWMA fields.
	folded []string
}

func isType(frame []byte, want proto.MsgType) bool {
	m, err := proto.Unmarshal(frame)
	return err == nil && m.Type() == want
}

func newRefRig(t *testing.T) *refRig {
	alg := &grabAlg{}
	r := &refRig{t: t, sim: netsim.New(1), alg: alg}
	r.agent = newAgent(t, alg)
	b := bridge.New(r.sim, r.agent.HandleFrame, 10*time.Microsecond)
	killed := func() { t.Error("a frame the test only held was refused by the decoder") }
	toDp := &bridge.Tap{Killed: killed, Carry: func(frame []byte, next func([]byte)) {
		c := append([]byte(nil), frame...)
		if r.hold && isType(c, proto.TypeInstall) {
			r.down = append(r.down, held{c, next})
			return
		}
		next(c)
	}}
	toAgent := &bridge.Tap{Killed: killed, Carry: func(frame []byte, next func([]byte)) {
		c := append([]byte(nil), frame...)
		if isType(c, proto.TypeMeasurement) {
			r.folded = lang.EWMAReportNames()
			if p := r.dp.Program(); p.Measure.Mode == lang.MeasureFold {
				r.folded = p.RegNames()
			}
		}
		if r.hold && isType(c, proto.TypeInstallErr) {
			if !r.loseErrs {
				r.up = append(r.up, held{c, next})
			}
			return
		}
		next(c)
	}}
	cfg := datapath.Config{SID: 1, Clock: r.sim}
	cfg.ToAgent = b.TappedSender(func(m proto.Msg) {
		r.dp.Deliver(m)
		r.checkHalvesMatch()
	}, toAgent, toDp)
	r.dp = datapath.New(cfg)
	r.dp.Init(tcp.NewConn(r.sim, 1, nil, r.dp, tcp.Options{MSS: 1448}))
	r.pump()
	if r.flow = alg.flow; r.flow == nil {
		t.Fatal("the agent never saw the flow")
	}
	return r
}

// pump lets everything in flight cross the bridge (well short of the
// datapath's first report).
func (r *refRig) pump() { r.sim.Run(r.sim.Now() + time.Millisecond) }

func (r *refRig) install(p *lang.Program) {
	r.t.Helper()
	if err := r.flow.Install(p); err != nil {
		r.t.Fatal(err)
	}
}

// checkHalvesMatch is the invariant: the control half in force was built by
// the agent for the measure half in force.
func (r *refRig) checkHalvesMatch() {
	p := r.dp.Program()
	if p.Measure.Mode != lang.MeasureFold {
		return // still the default program
	}
	reg := p.Measure.Fold.Regs[0].Name
	cwnd := float64(p.Instrs[0].(lang.SetCwnd).E.(lang.Const))
	if (reg == "a") != (cwnd >= 20000) {
		r.t.Fatalf("a control half built for the other fold is running: Cwnd(%v) over fold %q", cwnd, reg)
	}
}

// report runs the flow to its next report (the programs wait a round trip,
// 100 ms before the first RTT sample) and returns whether the agent named it
// by the fold the datapath ran (P1), with what it was named by if not.
func (r *refRig) report() (bool, string) {
	r.t.Helper()
	before := r.alg.reports
	r.sim.Run(r.sim.Now() + 101*time.Millisecond)
	if r.alg.reports == before {
		r.t.Fatal("no report reached the algorithm")
	}
	if !slices.Equal(r.alg.named, r.folded) {
		return false, fmt.Sprintf("a report of %v named %v", r.folded, r.alg.named)
	}
	return true, ""
}

// inStep: the datapath runs the agent's newest program.
func (r *refRig) inStep() bool {
	want, err := lang.MarshalProgram(r.flow.Installed())
	if err != nil {
		r.t.Fatal(err)
	}
	got, err := lang.MarshalProgram(r.dp.Program())
	if err != nil {
		r.t.Fatal(err)
	}
	return string(got) == string(want)
}

// answerErrs sends the held InstallErrs on to the agent and whatever the
// agent sends in reply on to the datapath: one round trip.
func (r *refRig) answerErrs(from int) {
	up := r.up
	r.up = nil
	for _, h := range up {
		h.next(h.frame)
		r.errsSeen++
	}
	r.pump() // the agent handles them; what it re-sends crosses and is held
	for ; from < len(r.down); from++ {
		r.down[from].next(r.down[from].frame)
	}
	r.down = r.down[:min(from, len(r.down))]
	r.pump()
}

// TestReferenceInterleavings delivers a whole Install that changes the fold,
// two references to it, and the InstallErrs they may draw, in every order,
// each Install delivered, dropped or duplicated, the InstallErrs answered at
// once, after everything else, or lost. Three things must hold throughout: a
// control half never runs over a measure half other than the one the agent
// built it for; the datapath runs the agent's newest program one round trip
// after an InstallErr for a reference reaches the agent (or, if none did,
// after the next Install and its round trip); and a report the datapath
// sends after any step is named by the agent by the fold that datapath ran
// (P1), the new fold's whole Install dropped or overtaken or not.
func TestReferenceInterleavings(t *testing.T) {
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	const (
		deliver = iota
		drop
		duplicate
	)
	const (
		errsAtOnce = iota
		errsLate
		errsLost
	)
	cases, resent, misnamed, first := 0, int64(0), 0, ""
	for _, order := range orders {
		for fates := 0; fates < 27; fates++ {
			for errs := errsAtOnce; errs <= errsLost; errs++ {
				fate := [3]int{fates % 3, fates / 3 % 3, fates / 9}
				name := fmt.Sprintf("order %v fates %v errs %d", order, fate, errs)
				r := newRefRig(t)
				// The flow settles on fold b, references working.
				r.install(foldProg("b", 10000))
				r.install(foldProg("b", 11000))
				r.pump()
				if st := r.dp.Stats(); st.InstallsRecvd != 2 || st.InstallsByRef != 1 || !r.inStep() {
					t.Fatalf("%s: set-up: %+v", name, st)
				}
				var steps []string // P1 failures of this interleaving
				step := func(at string) {
					if ok, why := r.report(); !ok {
						steps = append(steps, at+": "+why)
					}
				}
				step("set-up")
				// Then moves to fold a: one whole Install, two references.
				r.hold, r.loseErrs = true, errs == errsLost
				r.install(foldProg("a", 20000))
				r.install(foldProg("a", 21000))
				r.install(foldProg("a", 22000))
				r.pump()
				if len(r.down) != 3 {
					t.Fatalf("%s: %d installs held, want 3", name, len(r.down))
				}
				for _, i := range order {
					h := r.down[i]
					switch fate[i] {
					case deliver:
						h.next(h.frame)
					case duplicate:
						h.next(h.frame)
						h.next(append([]byte(nil), h.frame...))
					}
					if errs == errsAtOnce && len(r.up) > 0 {
						r.answerErrs(3)
						if !r.inStep() {
							t.Fatalf("%s: out of step a round trip after the InstallErr: datapath runs %s, agent holds %s",
								name, r.dp.Program(), r.flow.Installed())
						}
					}
					step(fmt.Sprintf("after install %d", i))
				}
				r.down = r.down[:min(3, len(r.down))]
				if len(r.up) > 0 {
					r.answerErrs(3)
					step("after the late InstallErrs")
				}
				if r.errsSeen > 0 && !r.inStep() {
					t.Fatalf("%s: out of step a round trip after the InstallErr: datapath runs %s, agent holds %s",
						name, r.dp.Program(), r.flow.Installed())
				}
				// The next report's Install, on a wire that loses nothing.
				r.loseErrs = false
				r.down = r.down[:0]
				r.install(foldProg("a", 23000))
				r.pump()
				for round := 0; round < 2 && (len(r.down) > 0 || len(r.up) > 0); round++ {
					r.answerErrs(0)
				}
				if !r.inStep() {
					t.Fatalf("%s: out of step after the next Install and its round trip: datapath runs %s, agent holds %s",
						name, r.dp.Program(), r.flow.Installed())
				}
				step("after the next Install")
				if len(steps) > 0 {
					if misnamed++; first == "" {
						first = name + ", " + steps[0]
					}
				}
				cases++
				resent += r.agent.Stats().Agent.RefResends
				if got := r.dp.Stats(); got.RefRefusals+got.InstallsRecvd+got.StaleCtrlDropped == 0 {
					t.Fatalf("%s: nothing reached the datapath: %+v", name, got)
				}
			}
		}
	}
	t.Logf("%d interleavings, %d whole re-sends", cases, resent)
	if resent == 0 {
		t.Fatal("no interleaving refused a reference: the sweep tests nothing")
	}
	if misnamed > 0 {
		t.Fatalf("in %d of %d interleavings a report was named by a fold the datapath did not run; first: %s",
			misnamed, cases, first)
	}
}
