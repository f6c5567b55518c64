package datapath

import (
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
)

// Report coalescing (§4 batching, Config.BatchInterval).

// batcher is the batching state of one flow, present from New exactly when
// Config.BatchInterval is set. Without it a report is sent as it is made and
// one scratch message is enough (CCP.rep, vectorState.rep); with it several
// wait in pending, so the batcher keeps a slab of each kind for them.
//
// The slabs follow Config.ToAgent's ownership rule: ToAgent consumes a
// message before returning, so once a flush has sent what pending points at,
// the entries — Fields and Data backing included — are reused and steady-state
// batching allocates nothing. The counts reset after every flush; pending
// holds pointers into the slabs meanwhile.
type batcher struct {
	pending []proto.Msg
	timer   netsim.Timer
	frame   proto.Batch // the Batch handed to ToAgent, Msgs borrowed from pending

	meas  []proto.Measurement
	vecs  []proto.Vector
	nMeas int
	nVecs int

	n batchCounts
}

// batchCounts is batching's part of Stats.
type batchCounts struct {
	BatchesSent    int
	BatchedReports int
}

// nextMeas hands out a scratch Measurement. Slab growth relocates the
// backing array, but entries already pending keep the old array alive through
// their pointers, so handed-out messages are never disturbed.
func (b *batcher) nextMeas() *proto.Measurement {
	if b.nMeas == len(b.meas) {
		b.meas = append(b.meas, proto.Measurement{})
	}
	v := &b.meas[b.nMeas]
	b.nMeas++
	return v
}

// nextVec hands out a scratch Vector (same discipline as nextMeas).
func (b *batcher) nextVec() *proto.Vector {
	if b.nVecs == len(b.vecs) {
		b.vecs = append(b.vecs, proto.Vector{})
	}
	v := &b.vecs[b.nVecs]
	b.nVecs++
	return v
}

// sendReport ships a report message, coalescing it into a pending batch when
// BatchInterval is set. The batch flushes when the interval elapses or the
// batch fills, whichever comes first; a batch that drained to a single
// message is sent plain, so shipping one report costs exactly the unbatched
// encoding.
func (d *CCP) sendReport(m proto.Msg) {
	b := d.batch
	if b == nil {
		d.send(m)
		return
	}
	b.pending = append(b.pending, m)
	if len(b.pending) >= d.cfg.MaxBatchMsgs {
		d.flushBatch()
		return
	}
	if b.timer == nil {
		b.timer = d.cfg.Clock.AfterFunc(d.cfg.BatchInterval, func() {
			b.timer = nil
			d.flushBatch()
		})
	}
}

// flushBatch ships any coalesced reports immediately. Safe to call with
// nothing pending, or with batching off. The batch frame itself is scratch:
// ToAgent consumes it synchronously, so pending and the report slabs are
// reclaimed on return.
func (d *CCP) flushBatch() {
	b := d.batch
	if b == nil {
		return
	}
	stopTimer(&b.timer)
	if len(b.pending) == 0 {
		return
	}
	if len(b.pending) == 1 {
		m := b.pending[0]
		b.pending = b.pending[:0]
		d.send(m)
		b.nMeas, b.nVecs = 0, 0
		return
	}
	b.n.BatchesSent++
	b.n.BatchedReports += len(b.pending)
	b.frame.Msgs = b.pending
	d.send(&b.frame)
	b.frame.Msgs = nil
	b.pending = b.pending[:0]
	b.nMeas, b.nVecs = 0, 0
}
