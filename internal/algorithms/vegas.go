package algorithms

import (
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// This file implements TCP Vegas both ways the paper's §2.4 describes,
// deliberately mirroring its two code listings:
//
//   - VegasVector receives a vector of per-packet RTTs and runs the queue
//     estimate per packet in user space (the "vector of measurements"
//     listing).
//   - VegasFold pushes the same per-packet logic into the datapath as a
//     fold function whose registers are the minimum RTT and the window
//     delta (the "fold function over measurements" listing).
//
// The ablation experiment (abl-fold) checks that the two produce equivalent
// window behaviour while shipping very different measurement volumes.

const (
	vegasAlpha = 2
	vegasBeta  = 4
)

// VegasVector is the §2.4 vector-style Vegas.
type VegasVector struct {
	mss     float64
	cwnd    float64 // bytes
	baseRTT float64 // seconds
}

// NewVegasVector returns a vector-style Vegas instance.
func NewVegasVector() *VegasVector { return &VegasVector{} }

// Name implements core.Alg.
func (v *VegasVector) Name() string { return "vegas-vector" }

// Init implements core.Alg.
func (v *VegasVector) Init(f *core.Flow) {
	v.mss = float64(f.Info.MSS)
	v.cwnd = float64(f.Info.InitCwnd)
	v.baseRTT = 1e9
	v.install(f)
}

func (v *VegasVector) install(f *core.Flow) {
	// Measure(rtt). Cwnd(v.cwnd).WaitRtts(1).Report() — as in the paper.
	prog := lang.NewProgram().
		MeasureVector(lang.FieldRTT).
		Cwnd(lang.C(v.cwnd)).
		WaitRtts(1).
		Report().
		MustBuild()
	f.Install(prog)
}

// OnMeasurement implements core.Alg: the paper's per-packet loop,
// `for p := range ps { ... }`.
func (v *VegasVector) OnMeasurement(f *core.Flow, m core.Measurement) {
	for _, p := range m.Samples {
		rtt := p.Get(lang.FieldRTT)
		if rtt <= 0 {
			continue
		}
		if rtt < v.baseRTT {
			v.baseRTT = rtt
		}
		inQ := (rtt - v.baseRTT) * (v.cwnd / v.mss) / v.baseRTT
		if inQ < vegasAlpha {
			v.cwnd += v.mss
		} else if inQ > vegasBeta {
			v.cwnd -= v.mss
		}
	}
	v.cwnd = maxF(v.cwnd, 2*v.mss)
	v.install(f)
}

// OnUrgent implements core.Alg.
func (v *VegasVector) OnUrgent(f *core.Flow, u core.UrgentEvent) {
	switch u.Kind {
	case proto.UrgentDupAck, proto.UrgentECN:
		v.cwnd = maxF(v.cwnd/2, 2*v.mss)
	case proto.UrgentTimeout:
		v.cwnd = maxF(v.mss, v.mss)
	}
	v.install(f)
}

// VegasFold is the §2.4 fold-style Vegas.
type VegasFold struct {
	mss     float64
	cwnd    float64
	baseRTT float64
}

// NewVegasFold returns a fold-style Vegas instance.
func NewVegasFold() *VegasFold { return &VegasFold{} }

// Name implements core.Alg.
func (v *VegasFold) Name() string { return "vegas" }

// Init implements core.Alg.
func (v *VegasFold) Init(f *core.Flow) {
	v.mss = float64(f.Info.MSS)
	v.cwnd = float64(f.Info.InitCwnd)
	v.baseRTT = 1e9
	v.install(f)
}

// vegasInQ is the per-packet queue estimate, (rtt - base_rtt) * cwnd/mss /
// base_rtt. The paper's foldFn closes over v.cwnd; expressions reference the
// datapath's live "cwnd" variable instead, which tracks it between reports.
var vegasInQ = lang.Div(
	lang.Mul(lang.Sub(lang.V("pkt.rtt"), lang.V("base_rtt")),
		lang.Div(lang.V("cwnd"), lang.V("mss"))),
	lang.Max(lang.V("base_rtt"), lang.C(1e-9)))

// vegasUpdates is the update rule of the paper's VegasState fold: base_rtt
// carries the min RTT, delta accumulates ±1 per packet from the queue
// estimate. It never changes, so every spec foldSpec builds shares it (a
// FoldSpec tree is immutable once installed).
var vegasUpdates = []lang.Assign{
	{Dst: "base_rtt", E: lang.Min(lang.V("base_rtt"), lang.Max(lang.V("pkt.rtt"), lang.C(1e-9)))},
	{Dst: "delta", E: lang.Ite(lang.Lt(vegasInQ, lang.C(vegasAlpha)),
		lang.Add(lang.V("delta"), lang.C(1)),
		lang.Ite(lang.Gt(vegasInQ, lang.C(vegasBeta)),
			lang.Sub(lang.V("delta"), lang.C(1)),
			lang.V("delta")))},
}

// foldSpec is the fold with base_rtt starting from the best estimate so
// far: only the registers are built per install.
func (v *VegasFold) foldSpec() *lang.FoldSpec {
	return &lang.FoldSpec{
		Regs: []lang.RegDef{
			{Name: "base_rtt", Init: v.baseRTT},
			{Name: "delta", Init: 0},
		},
		Updates: vegasUpdates,
	}
}

func (v *VegasFold) install(f *core.Flow) {
	// v.Install(Measure(initState, foldFn).Cwnd(v.cwnd).WaitRtts(1).Report())
	prog := lang.NewProgram().
		MeasureFold(v.foldSpec()).
		Cwnd(lang.C(v.cwnd)).
		WaitRtts(1).
		Report().
		MustBuild()
	f.Install(prog)
}

// OnMeasurement implements core.Alg: the paper's two-line handler —
// cwnd += delta; baseRtt = s.baseRtt.
func (v *VegasFold) OnMeasurement(f *core.Flow, m core.Measurement) {
	delta := m.GetOr("delta", 0)
	if base, ok := m.Get("base_rtt"); ok && base > 0 && base < v.baseRTT {
		v.baseRTT = base
	}
	v.cwnd = maxF(v.cwnd+delta*v.mss, 2*v.mss)
	v.install(f)
}

// OnUrgent implements core.Alg.
func (v *VegasFold) OnUrgent(f *core.Flow, u core.UrgentEvent) {
	switch u.Kind {
	case proto.UrgentDupAck, proto.UrgentECN:
		v.cwnd = maxF(v.cwnd/2, 2*v.mss)
	case proto.UrgentTimeout:
		v.cwnd = v.mss
	}
	v.install(f)
}
