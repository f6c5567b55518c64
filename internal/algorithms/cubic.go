package algorithms

import (
	"math"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// Cubic is CCP Cubic — the paper's §2.2 showcase: the window curve is
// computed in user space with ordinary floating point (math.Pow/math.Cbrt)
// instead of the kernel's 42-line fixed-point cube root. Measurements
// arrive via a fold function (acked bytes, smoothed RTT, datapath clock)
// twice per RTT, and the agent installs the new window each report.
type Cubic struct {
	mss      float64
	cwndSegs float64 // window in segments, agent-side shadow
	ssthresh float64 // segments

	wMax       float64 // window at last drop, segments
	k          float64 // time offset of the cubic origin, seconds
	epochStart float64 // datapath clock at epoch start, seconds
	srtt       float64 // seconds, from reports

	// cutSinceReport rate-limits multiplicative decreases to one per
	// report (~once per RTT): a single loss burst raises several urgent
	// events before the agent's next measurement arrives, and reacting to
	// each would collapse the window (the off-datapath analog of the
	// kernel's once-per-RTT reduction rule).
	cutSinceReport bool
}

// cubicBeta and cubicC are the RFC 8312 constants (β=0.7, C=0.4); 0.4
// appears verbatim in the paper's code snippet.
const (
	cubicBeta = 0.7
	cubicCC   = 0.4
)

// NewCubic returns a CCP Cubic instance.
func NewCubic() *Cubic { return &Cubic{} }

// Name implements core.Alg.
func (cu *Cubic) Name() string { return "cubic" }

// cubicFold gathers acked bytes, an RTT filter, and the datapath clock. It
// never changes, so every flow installs this one spec (a FoldSpec is
// immutable once installed).
var cubicFold = &lang.FoldSpec{
	Regs: []lang.RegDef{
		{Name: "acked", Init: 0},
		{Name: "rtt_f", Init: 0},
		{Name: "dp_now", Init: 0},
	},
	Updates: []lang.Assign{
		{Dst: "acked", E: lang.Add(lang.V("acked"), lang.V("pkt.acked"))},
		{Dst: "rtt_f", E: lang.Ite(lang.Eq(lang.V("rtt_f"), lang.C(0)),
			lang.V("pkt.rtt"),
			lang.Add(lang.Mul(lang.C(0.875), lang.V("rtt_f")),
				lang.Mul(lang.C(0.125), lang.V("pkt.rtt"))))},
		{Dst: "dp_now", E: lang.V("pkt.now")},
	},
}

// Init implements core.Alg.
func (cu *Cubic) Init(f *core.Flow) {
	cu.mss = float64(f.Info.MSS)
	cu.cwndSegs = float64(f.Info.InitCwnd) / cu.mss
	cu.ssthresh = 1 << 20
	cu.wMax = 0
	cu.epochStart = -1
	cu.install(f)
}

// install pushes the fold program with the current window; reports come
// twice per RTT, the paper's "once or twice per RTT" cadence.
func (cu *Cubic) install(f *core.Flow) {
	prog := lang.NewProgram().
		MeasureFold(cubicFold).
		Cwnd(lang.C(cu.cwndSegs * cu.mss)).
		WaitRtts(0.5).
		Report().
		MustBuild()
	f.Install(prog)
}

// OnMeasurement implements core.Alg: advance along the cubic curve.
func (cu *Cubic) OnMeasurement(f *core.Flow, m core.Measurement) {
	cu.cutSinceReport = false
	now, ours := m.Get("dp_now")
	if !ours { // the default program's: a workaround, not a naming fix, so that
		cu.install(f) // a slow agent's backlog of them does not replay as slow start
		return
	}
	acked := m.GetOr("acked", 0)
	if acked <= 0 {
		return
	}
	if rtt := m.GetOr("rtt_f", 0); rtt > 0 {
		cu.srtt = rtt
	}

	if cu.cwndSegs < cu.ssthresh {
		// Slow start.
		cu.cwndSegs = minF(cu.cwndSegs+acked/cu.mss, cu.ssthresh+1)
		cu.install(f)
		return
	}

	if cu.epochStart < 0 {
		cu.epochStart = now
		if cu.cwndSegs < cu.wMax {
			// The paper's snippet: K = (max(0,(WlastMax-cwnd)/0.4))^(1/3).
			cu.k = math.Pow(math.Max(0, (cu.wMax-cu.cwndSegs)/cubicCC), 1.0/3.0)
		} else {
			cu.k = 0
			cu.wMax = cu.cwndSegs
		}
	}
	// Target the curve one RTT ahead: cwnd = WlastMax + 0.4*(t-K)^3.
	t := now - cu.epochStart + cu.srtt
	target := cu.wMax + cubicCC*math.Pow(t-cu.k, 3)

	// TCP-friendly region (RFC 8312 W_est).
	if cu.srtt > 0 {
		wEst := cu.wMax*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*((now-cu.epochStart)/cu.srtt)
		if wEst > target {
			target = wEst
		}
	}

	// Follow the curve, capping growth at 50% per report for robustness
	// against clock/RTT misestimates.
	if target > cu.cwndSegs {
		cu.cwndSegs = minF(target, cu.cwndSegs*1.5)
	}
	cu.install(f)
}

// OnUrgent implements core.Alg: multiplicative decrease and epoch reset.
func (cu *Cubic) OnUrgent(f *core.Flow, u core.UrgentEvent) {
	switch u.Kind {
	case proto.UrgentDupAck, proto.UrgentECN:
		if cu.cutSinceReport {
			return
		}
		cu.cutSinceReport = true
		cu.epochStart = -1
		if cu.cwndSegs < cu.wMax {
			// Fast convergence.
			cu.wMax = cu.cwndSegs * (2 - cubicBeta) / 2
		} else {
			cu.wMax = cu.cwndSegs
		}
		cu.cwndSegs = maxF(cu.cwndSegs*cubicBeta, 2)
		cu.ssthresh = cu.cwndSegs
	case proto.UrgentTimeout:
		cu.epochStart = -1
		cu.wMax = cu.cwndSegs
		cu.ssthresh = maxF(cu.cwndSegs*cubicBeta, 2)
		cu.cwndSegs = 1
	}
	cu.install(f)
}
