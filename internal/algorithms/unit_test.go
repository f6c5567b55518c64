package algorithms_test

import (
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// rig drives one algorithm instance through the real agent with synthetic
// wire messages, capturing everything sent toward the datapath. No
// simulator: these are pure control-logic unit tests.
type algRig struct {
	t     *testing.T
	agent *core.Agent
	out   []proto.Msg
}

func newAlgRig(t *testing.T, name string, factory core.AlgFactory) *algRig {
	t.Helper()
	reg := core.NewRegistry()
	reg.Register(name, factory)
	agent, err := core.NewAgent(core.AgentConfig{Registry: reg, DefaultAlg: name})
	if err != nil {
		t.Fatal(err)
	}
	r := &algRig{t: t, agent: agent}
	r.handle(&proto.Create{SID: 1, MSS: 1000, InitCwnd: 10000, Alg: name})
	return r
}

func (r *algRig) handle(m proto.Msg) {
	r.agent.HandleMessage(m, func(out proto.Msg) error {
		r.out = append(r.out, proto.Clone(out)) // out is the agent's scratch
		return nil
	})
}

// ewmaReport feeds an EWMA-mode measurement (rtt s, snd/rcv B/s, acked,
// lost bytes, ecn fraction, last rtt).
func (r *algRig) ewmaReport(seq uint32, rtt, snd, rcv, acked, lost, ecn float64) {
	r.handle(&proto.Measurement{SID: 1, Seq: seq,
		Fields: []float64{rtt, snd, rcv, acked, lost, ecn, rtt}})
}

func (r *algRig) urgent(kind proto.UrgentKind, v float64) {
	r.handle(&proto.Urgent{SID: 1, Kind: kind, Value: v})
}

// lastCwnd returns the most recent window pushed to the datapath, whether
// via SetCwnd or baked into an installed program's first Cwnd instruction.
func (r *algRig) lastCwnd() (float64, bool) {
	for i := len(r.out) - 1; i >= 0; i-- {
		switch m := r.out[i].(type) {
		case *proto.SetCwnd:
			return float64(m.Bytes), true
		case *proto.Install:
			p, err := lang.UnmarshalProgram(m.Prog)
			if err != nil {
				r.t.Fatalf("bad installed program: %v", err)
			}
			for _, in := range p.Instrs {
				if sc, ok := in.(lang.SetCwnd); ok {
					if c, isConst := sc.E.(lang.Const); isConst {
						return float64(c), true
					}
				}
			}
		}
	}
	return 0, false
}

func (r *algRig) lastRate() (float64, bool) {
	for i := len(r.out) - 1; i >= 0; i-- {
		switch m := r.out[i].(type) {
		case *proto.SetRate:
			return m.Bps, true
		case *proto.Install:
			p, err := lang.UnmarshalProgram(m.Prog)
			if err != nil {
				r.t.Fatalf("bad installed program: %v", err)
			}
			for _, in := range p.Instrs {
				if sr, ok := in.(lang.SetRate); ok {
					if c, isConst := sr.E.(lang.Const); isConst {
						return float64(c), true
					}
				}
			}
		}
	}
	return 0, false
}

func TestRenoUnitSlowStartAndHalving(t *testing.T) {
	r := newAlgRig(t, "reno", func() core.Alg { return algorithms.NewReno() })
	c0, ok := r.lastCwnd()
	if !ok || c0 != 10000 {
		t.Fatalf("init cwnd=%v ok=%v", c0, ok)
	}
	// Slow start: acked bytes add directly.
	r.ewmaReport(1, 0.01, 1e6, 1e6, 10000, 0, 0)
	if c, _ := r.lastCwnd(); c != 20000 {
		t.Fatalf("after slow-start report cwnd=%v, want 20000", c)
	}
	// Loss: halve once, and hold further halvings until the next report.
	r.urgent(proto.UrgentDupAck, 1000)
	c1, _ := r.lastCwnd()
	if c1 != 10000 {
		t.Fatalf("after loss cwnd=%v, want 10000", c1)
	}
	r.urgent(proto.UrgentDupAck, 1000)
	if c2, _ := r.lastCwnd(); c2 != c1 {
		t.Fatalf("second urgent within a report halved again: %v", c2)
	}
	// Next report reopens the cut window.
	r.ewmaReport(2, 0.01, 1e6, 1e6, 10000, 0, 0)
	r.urgent(proto.UrgentDupAck, 1000)
	if c3, _ := r.lastCwnd(); c3 >= c1 {
		t.Fatalf("halving after report did not apply: %v", c3)
	}
}

func TestRenoUnitTimeoutCollapses(t *testing.T) {
	r := newAlgRig(t, "reno", func() core.Alg { return algorithms.NewReno() })
	r.urgent(proto.UrgentTimeout, 10000)
	if c, _ := r.lastCwnd(); c != 1000 {
		t.Fatalf("after timeout cwnd=%v, want 1 MSS", c)
	}
}

func TestCubicUnitDecreaseFactor(t *testing.T) {
	r := newAlgRig(t, "cubic", func() core.Alg { return algorithms.NewCubic() })
	c0, ok := r.lastCwnd()
	if !ok {
		t.Fatal("cubic installed no window")
	}
	r.urgent(proto.UrgentDupAck, 1000)
	c1, _ := r.lastCwnd()
	want := c0 * 0.7
	if c1 < want*0.95 || c1 > want*1.05 {
		t.Fatalf("cubic decrease: %v -> %v, want ~%v", c0, c1, want)
	}
}

func TestDCTCPUnitAlphaScaling(t *testing.T) {
	r := newAlgRig(t, "dctcp", func() core.Alg { return algorithms.NewDCTCP() })
	c0, _ := r.lastCwnd()
	// Fold report: [acked_b, marked_b, lost_b]. 50% marked.
	r.handle(&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{10000, 5000, 0}})
	c1, _ := r.lastCwnd()
	if c1 >= c0 {
		t.Fatalf("marked window did not shrink: %v -> %v", c0, c1)
	}
	// Unmarked windows grow again.
	prev := c1
	for seq := uint32(2); seq < 6; seq++ {
		r.handle(&proto.Measurement{SID: 1, Seq: seq, Fields: []float64{10000, 0, 0}})
	}
	c2, _ := r.lastCwnd()
	if c2 <= prev {
		t.Fatalf("clean windows did not grow: %v -> %v", prev, c2)
	}
}

func TestTimelyUnitGradient(t *testing.T) {
	r := newAlgRig(t, "timely", func() core.Alg { return algorithms.NewTimely() })
	rate0, ok := r.lastRate()
	if !ok || rate0 <= 0 {
		t.Fatalf("timely set no initial rate: %v", rate0)
	}
	// Flat, low RTTs: rate rises (below t_low).
	for seq := uint32(1); seq <= 5; seq++ {
		r.ewmaReport(seq, 0.010, 1e6, 1e6, 10000, 0, 0)
	}
	rate1, _ := r.lastRate()
	if rate1 <= rate0 {
		t.Fatalf("rate did not rise on low RTTs: %v -> %v", rate0, rate1)
	}
	// Sharply rising RTTs: rate falls.
	rtt := 0.012
	for seq := uint32(6); seq <= 15; seq++ {
		rtt *= 1.6
		r.ewmaReport(seq, rtt, 1e6, 1e6, 10000, 0, 0)
	}
	rate2, _ := r.lastRate()
	if rate2 >= rate1 {
		t.Fatalf("rate did not fall on rising RTTs: %v -> %v", rate1, rate2)
	}
}

func TestBBRUnitEntersPulses(t *testing.T) {
	r := newAlgRig(t, "bbr", func() core.Alg { return algorithms.NewBBR() })
	// Delivery rate plateaus: BBR must leave startup and install the
	// 9-instruction pulse program.
	for seq := uint32(1); seq <= 10; seq++ {
		r.ewmaReport(seq, 0.010, 2e6, 2e6, 10000, 0, 0)
	}
	var pulses *lang.Program
	for i := len(r.out) - 1; i >= 0; i-- {
		if inst, ok := r.out[i].(*proto.Install); ok {
			p, err := lang.UnmarshalProgram(inst.Prog)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Instrs) >= 9 {
				pulses = p
				break
			}
		}
	}
	if pulses == nil {
		t.Fatal("BBR never installed the pulse program")
	}
	// The three pulse rates must be r*1.25, r*0.75, r around btlBw=2e6.
	var rates []float64
	for _, in := range pulses.Instrs {
		if sr, ok := in.(lang.SetRate); ok {
			if c, isConst := sr.E.(lang.Const); isConst {
				rates = append(rates, float64(c))
			}
		}
	}
	if len(rates) != 3 {
		t.Fatalf("pulse program has %d rate instrs", len(rates))
	}
	if !(rates[0] > rates[2] && rates[1] < rates[2]) {
		t.Fatalf("pulse pattern wrong: %v", rates)
	}
	ratio := rates[0] / rates[2]
	if ratio < 1.2 || ratio > 1.3 {
		t.Fatalf("high pulse ratio %v, want 1.25", ratio)
	}
}

func TestPCCUnitMovesTowardUtility(t *testing.T) {
	r := newAlgRig(t, "pcc", func() core.Alg { return algorithms.NewPCC() })
	rate0, _ := r.lastRate()
	// Two lossless intervals with the high interval delivering more: the
	// utility gradient points up.
	for i := 0; i < 6; i++ {
		r.ewmaReport(uint32(2*i+1), 0.01, 1e6, 1.05e6, 105000, 0, 0) // high interval
		r.ewmaReport(uint32(2*i+2), 0.01, 1e6, 0.95e6, 95000, 0, 0)  // low interval
	}
	rate1, _ := r.lastRate()
	if rate1 <= rate0 {
		t.Fatalf("pcc did not climb on positive utility gradient: %v -> %v", rate0, rate1)
	}
	// Heavy loss in the high interval flips the direction.
	for i := 0; i < 6; i++ {
		r.ewmaReport(uint32(100+2*i), 0.01, 1e6, 0.9e6, 90000, 40000, 0)
		r.ewmaReport(uint32(101+2*i), 0.01, 1e6, 0.95e6, 95000, 0, 0)
	}
	rate2, _ := r.lastRate()
	if rate2 >= rate1 {
		t.Fatalf("pcc did not back off under loss: %v -> %v", rate1, rate2)
	}
}

func TestVegasFoldUnitAppliesDelta(t *testing.T) {
	r := newAlgRig(t, "vegas", func() core.Alg { return algorithms.NewVegasFold() })
	c0, _ := r.lastCwnd()
	// Fold report: [base_rtt, delta]. delta=+3 segments.
	r.handle(&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{0.01, 3}})
	c1, _ := r.lastCwnd()
	if c1 != c0+3*1000 {
		t.Fatalf("delta not applied: %v -> %v", c0, c1)
	}
	// Negative delta shrinks.
	r.handle(&proto.Measurement{SID: 1, Seq: 2, Fields: []float64{0.01, -5}})
	c2, _ := r.lastCwnd()
	if c2 != c1-5*1000 {
		t.Fatalf("negative delta not applied: %v -> %v", c1, c2)
	}
}

func TestVegasVectorUnitPerPacketLoop(t *testing.T) {
	r := newAlgRig(t, "vegas-vector", func() core.Alg { return algorithms.NewVegasVector() })
	c0, _ := r.lastCwnd()
	// Vector of rtt samples: all at base (no queueing) => +1 MSS each.
	r.handle(&proto.Vector{SID: 1, Seq: 1, NumFields: 1,
		Data: []float64{0.010, 0.010, 0.010}})
	c1, _ := r.lastCwnd()
	if c1 != c0+3*1000 {
		t.Fatalf("per-packet increments wrong: %v -> %v", c0, c1)
	}
	// Strongly inflated RTTs => decrements.
	r.handle(&proto.Vector{SID: 1, Seq: 2, NumFields: 1,
		Data: []float64{0.030, 0.030, 0.030}})
	c2, _ := r.lastCwnd()
	if c2 >= c1 {
		t.Fatalf("inflated RTTs did not shrink window: %v -> %v", c1, c2)
	}
}

func TestXCPUnitInstallsOnce(t *testing.T) {
	r := newAlgRig(t, "xcp", func() core.Alg { return algorithms.NewXCP() })
	installs := 0
	for _, m := range r.out {
		if _, ok := m.(*proto.Install); ok {
			installs++
		}
	}
	if installs != 1 {
		t.Fatalf("xcp installs=%d, want 1", installs)
	}
	// Measurements must not trigger further control traffic.
	n := len(r.out)
	r.handle(&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{2e6, 10000}})
	if len(r.out) != n {
		t.Fatal("xcp reacted to a routine measurement")
	}
}

func TestSynthesizedAIMDUnitProgramShape(t *testing.T) {
	r := newAlgRig(t, "aimd-dp", func() core.Alg { return algorithms.NewSynthesizedAIMD(1, 0.5) })
	if len(r.out) != 1 {
		t.Fatalf("messages=%d, want single install", len(r.out))
	}
	inst, ok := r.out[0].(*proto.Install)
	if !ok {
		t.Fatalf("message is %T", r.out[0])
	}
	p, err := lang.UnmarshalProgram(inst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if p.Measure.Mode != lang.MeasureFold {
		t.Fatalf("mode=%v", p.Measure.Mode)
	}
	// Evaluate the synthesized Cwnd expression directly: loss halves,
	// progress adds one segment.
	var cwndExpr lang.Expr
	for _, in := range p.Instrs {
		if sc, ok := in.(lang.SetCwnd); ok {
			cwndExpr = sc.E
		}
	}
	if cwndExpr == nil {
		t.Fatal("no Cwnd instruction")
	}
	env := func(vals map[string]float64) lang.Env {
		return func(name string) (float64, bool) {
			v, ok := vals[name]
			return v, ok
		}
	}
	got, err := lang.Eval(cwndExpr, env(map[string]float64{
		"lost_s": 0, "acked_s": 10000, "cwnd": 20000, "mss": 1000}))
	if err != nil || got != 21000 {
		t.Fatalf("increase eval=%v err=%v, want 21000", got, err)
	}
	got, err = lang.Eval(cwndExpr, env(map[string]float64{
		"lost_s": 1000, "acked_s": 10000, "cwnd": 20000, "mss": 1000}))
	if err != nil || got != 10000 {
		t.Fatalf("decrease eval=%v err=%v, want 10000", got, err)
	}
}
