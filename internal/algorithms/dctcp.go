package algorithms

import (
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// DCTCP is CCP DCTCP: the datapath folds the fraction of CE-marked bytes
// per window (the F statistic), and the agent maintains the running alpha
// estimate and scales the window by alpha/2 once per RTT. ECN marks are
// deliberately *batched*, not urgent — DCTCP's whole design reacts to the
// per-window marking fraction, exercising the paper's batched-congestion-
// signal path.
type DCTCP struct {
	mss      float64
	cwnd     float64
	ssthresh float64
	alpha    float64
	g        float64 // alpha gain (1/16 as in the DCTCP paper)
	// cutSinceReport limits loss-driven decreases to one per report.
	cutSinceReport bool
}

// NewDCTCP returns a CCP DCTCP instance.
func NewDCTCP() *DCTCP { return &DCTCP{g: 1.0 / 16} }

// Name implements core.Alg.
func (d *DCTCP) Name() string { return "dctcp" }

// dctcpFold counts acked, CE-marked and lost bytes; one immutable spec for
// every flow.
var dctcpFold = &lang.FoldSpec{
	Regs: []lang.RegDef{
		{Name: "acked_b", Init: 0},
		{Name: "marked_b", Init: 0},
		{Name: "lost_b", Init: 0},
	},
	Updates: []lang.Assign{
		{Dst: "acked_b", E: lang.Add(lang.V("acked_b"), lang.V("pkt.acked"))},
		{Dst: "marked_b", E: lang.Add(lang.V("marked_b"),
			lang.Mul(lang.V("pkt.ecn"), lang.V("pkt.acked")))},
		{Dst: "lost_b", E: lang.Add(lang.V("lost_b"), lang.V("pkt.lost"))},
	},
}

// Init implements core.Alg.
func (d *DCTCP) Init(f *core.Flow) {
	d.mss = float64(f.Info.MSS)
	d.cwnd = float64(f.Info.InitCwnd)
	d.ssthresh = 1 << 30
	d.alpha = 1 // start conservative, as the DCTCP paper recommends
	d.install(f)
}

func (d *DCTCP) install(f *core.Flow) {
	prog := lang.NewProgram().
		MeasureFold(dctcpFold).
		Cwnd(lang.C(d.cwnd)).
		WaitRtts(1).
		Report().
		MustBuild()
	f.Install(prog)
}

// OnMeasurement implements core.Alg: one alpha/window update per RTT.
func (d *DCTCP) OnMeasurement(f *core.Flow, m core.Measurement) {
	d.cutSinceReport = false
	acked := m.GetOr("acked_b", 0)
	if acked <= 0 {
		return
	}
	marked := m.GetOr("marked_b", 0)
	fFrac := marked / acked
	d.alpha = (1-d.g)*d.alpha + d.g*fFrac

	if fFrac > 0 {
		// Congested: scale back by alpha/2.
		d.cwnd = maxF(d.cwnd*(1-d.alpha/2), 2*d.mss)
		d.ssthresh = d.cwnd
	} else if d.cwnd < d.ssthresh {
		d.cwnd += acked // slow start
	} else {
		d.cwnd += d.mss * (acked / d.cwnd) // additive increase
	}
	d.install(f)
}

// OnUrgent implements core.Alg: loss still halves, like TCP.
func (d *DCTCP) OnUrgent(f *core.Flow, u core.UrgentEvent) {
	switch u.Kind {
	case proto.UrgentDupAck:
		if d.cutSinceReport {
			return
		}
		d.cutSinceReport = true
		d.cwnd = maxF(d.cwnd/2, 2*d.mss)
		d.ssthresh = d.cwnd
	case proto.UrgentTimeout:
		d.ssthresh = maxF(d.cwnd/2, 2*d.mss)
		d.cwnd = d.mss
	case proto.UrgentECN:
		// Not requested urgent; handled via the fold.
		return
	}
	d.install(f)
}
