package datapath

import (
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// What the flow tells the agent: reports at the program's Report points and
// urgent events as they happen. Each message is built in scratch the flow
// owns and reuses (Config.ToAgent's ownership rule), so steady-state
// reporting allocates nothing.

// vectorState is what vector mode (§2.4 per-packet vectors) keeps: a flow has
// one from its first vector-mode program on.
type vectorState struct {
	fields []lang.Field // the program in force's columns; empty outside vector mode
	rows   []float64    // samples since the last report, row-major
	rep    proto.Vector // the report, valid for one ToAgent call

	n vectorCounts
}

// vectorCounts is vector mode's part of Stats.
type vectorCounts struct {
	VectorsSent    int
	VectorRowsSent int
	VectorDropped  int
}

// maxVectorRows caps the rows a vector report holds; beyond it an ACK's
// sample is dropped and counted.
const maxVectorRows = 8192

// sample appends the ACK's row, or counts it dropped once maxVectorRows are
// held.
func (v *vectorState) sample(vars []float64) {
	if len(v.rows)/len(v.fields) >= maxVectorRows {
		v.n.VectorDropped++
		return
	}
	for _, f := range v.fields {
		v.rows = append(v.rows, vars[lang.PktFieldSlot(f)])
	}
}

// report ships the batched measurement state to the agent and resets it.
func (d *CCP) report() {
	d.reportSeq++
	if d.reportSeq == 0 {
		d.reportSeq = 1 // skip 0 on wrap: 0 means "unsequenced" on the wire
	}
	switch d.measureMode() {
	case lang.MeasureFold:
		v := &d.rep
		v.SID, v.Seq = d.cfg.SID, d.reportSeq
		v.Fields = d.fold.ReadRegs(d.vars, v.Fields[:0])
		d.send(v)
		d.n.ReportsSent++
		d.fold.InitRegs(d.vars)
	case lang.MeasureVector:
		vs := d.vec
		if len(vs.fields) == 0 {
			return
		}
		v := &vs.rep
		v.SID, v.Seq = d.cfg.SID, d.reportSeq
		v.NumFields = uint8(len(vs.fields))
		v.Data = append(v.Data[:0], vs.rows...)
		vs.rows = vs.rows[:0]
		d.send(v)
		vs.n.VectorsSent++
		vs.n.VectorRowsSent += len(v.Data) / len(vs.fields)
	default: // EWMA (§3 prototype report)
		ecnFrac := 0.0
		if d.pktsAcc > 0 {
			ecnFrac = float64(d.ecnAcc) / float64(d.pktsAcc)
		}
		v := &d.rep
		v.SID, v.Seq = d.cfg.SID, d.reportSeq
		v.Fields = append(v.Fields[:0],
			d.ewmaRtt.Value(),
			d.ewmaSnd.Value(),
			d.ewmaRcv.Value(),
			d.ackedAcc,
			d.lostAcc,
			ecnFrac,
			d.lastRtt,
		)
		d.send(v)
		d.n.ReportsSent++
		d.ackedAcc, d.lostAcc = 0, 0
		d.pktsAcc, d.ecnAcc = 0, 0
	}
}

func (d *CCP) sendUrgent(kind proto.UrgentKind, value float64) {
	d.n.UrgentsSent++
	d.urgentSeq++
	if d.urgentSeq == 0 {
		d.urgentSeq = 1 // skip 0 on wrap, as for reportSeq
	}
	d.scratchUrgent = proto.Urgent{SID: d.cfg.SID, Seq: d.urgentSeq, Kind: kind, Value: value}
	d.send(&d.scratchUrgent)
}

func (d *CCP) send(m proto.Msg) {
	if err := d.cfg.ToAgent(m); err != nil {
		d.n.SendErrors++
	}
}
