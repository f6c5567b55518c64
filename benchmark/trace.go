package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/proto"
)

// Tracing is done entirely from outside the program under test: the driver
// stamps around its own calls into public functions, and wrappers on public
// interfaces (ipc.Transport and ipc.RecvSet at the agent end of each ring,
// core.Alg around each algorithm) stamp the agent side. The stamps of one
// report meet in a side table keyed by record index; nothing rides the wire.

const (
	// maxRecs is how many reports one traced phase breaks down (2.5 MB of
	// records). The tracer spreads them evenly over the phase: a report is
	// sampled when at least phase/maxRecs has passed since the last sampled
	// one, so a slow workload has every report traced and a saturated one
	// pays for a trace every few hundred microseconds, not on every report.
	maxRecs = 1 << 14
	// upSlots must exceed the frames a 256 KiB ring can hold (a Close frame
	// is 9 bytes with its length prefix), so an entry is never overwritten
	// before the agent end has read it.
	upSlots = 1 << 15
	// maxProgs caps the Install programs kept for the part-by-part replay.
	maxProgs = 256
	// maxSpanLoops caps the loops whose spans are written to the span file.
	maxSpanLoops = 2048
)

// rec holds every stamp of one report's trip round the loop, ns on the
// driver clock. Driver-side and agent-side fields are written by different
// goroutines but never the same field by two, and the driver reads the
// agent's only after the runtime has drained.
type rec struct {
	sid, seq      uint32
	acks          int32
	done, install bool

	due, fire, acked              int64 // timer due, driver got to it, ACKs fed
	taIn, marshaled, taOut, cbRet int64 // ToAgent entry, frame built, sent; timer callback returned
	dpRecv, unmarshaled           int64 // decision frame polled, decoded
	delivIn, delivOut             int64 // Deliver entry, return (decision applied)

	agRecv, algIn, algOut int64 // agent end polled the report; OnMeasurement entry, return
	agSendIn, agSendOut   int64 // agent end Send of the first decision
}

// agentFlow is the agent side's per-slot view: rec is the record of the
// newest report the agent end received for the flow, cur the record whose
// OnMeasurement is running (so the agent-end Send can claim it).
type agentFlow struct{ rec, cur atomic.Int32 }

type tracer struct {
	// on gates stamping; the wrappers stay in place for the whole life of a
	// traced stack so the untraced half of a traced run differs only by it.
	on atomic.Bool
	d  *driver

	recs []rec
	nrec int
	cur  rec // the report being fired, committed to recs when it is sent
	// gap is the least time between two sampled reports, last when the
	// latest one fired.
	gap, last int64

	// up[r] carries, for the k-th frame sent on ring r, the record it belongs
	// to (-1 for anything but a traced report). The agent end reads entry k
	// when it receives its k-th frame: the ring is FIFO, so they match.
	// upSent is atomic although the ring already orders the two sides: the
	// ring's cursors live in mmap-ed memory the race detector cannot see, so
	// the count is what shows it that the entry and the record were written
	// before they are read.
	up     [numRings][]int32
	upSent [numRings]atomic.Uint64

	aflows []agentFlow
	// claims counts flows with a current record, so the agent-end Send only
	// decodes a frame when there is a record it could belong to.
	claims atomic.Int32
	ends   []*tracedEnd
	parks  atomic.Int64

	onack, marshal, sendUp, unmarshal acc
	deliverInstall, deliverCtrl       acc
	progs                             [][]byte
	progBytes                         acc
}

func newTracer() *tracer {
	tr := &tracer{recs: make([]rec, maxRecs)}
	for i := range tr.up {
		tr.up[i] = make([]int32, upSlots)
	}
	return tr
}

func (tr *tracer) attach(d *driver) {
	tr.d = d
	tr.aflows = make([]agentFlow, len(d.flows))
	for i := range tr.aflows {
		tr.aflows[i].rec.Store(-1)
		tr.aflows[i].cur.Store(-1)
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.d.epoch)) }

func (tr *tracer) aflow(sid uint32) *agentFlow { return &tr.aflows[tr.d.slot(sid)] }

// start switches stamping on for a traced phase of the given length.
func (tr *tracer) start(phase time.Duration) {
	tr.gap = int64(phase) / maxRecs
	tr.on.Store(true)
}

// sample decides whether the timer fire at hand is traced and, if so, starts
// the scratch record of the report it is about to produce; commit moves that
// into the table once the report is actually sent.
func (tr *tracer) sample(due, fire int64, acks int) bool {
	if !tr.on.Load() || fire-tr.last < tr.gap || tr.nrec == len(tr.recs) {
		return false
	}
	tr.last = fire
	tr.cur = rec{due: due, fire: fire, acks: int32(acks)}
	return true
}

func (tr *tracer) commit(sid, seq uint32) int32 {
	i := tr.nrec
	tr.nrec++
	tr.cur.sid, tr.cur.seq = sid, seq
	tr.recs[i] = tr.cur
	return int32(i)
}

func (tr *tracer) pushUp(ring int, rec int32) {
	k := tr.upSent[ring].Load()
	tr.up[ring][k%upSlots] = rec
	tr.upSent[ring].Store(k + 1)
}

// capture keeps a copy of an Install's program bytes for the replay.
func (tr *tracer) capture(m *proto.Install) {
	tr.progBytes.add(int64(len(m.Prog)))
	if len(tr.progs) < maxProgs {
		tr.progs = append(tr.progs, append([]byte(nil), m.Prog...))
	}
}

// onMeasurement is the traced core.Alg.OnMeasurement: stamp entry and exit on
// the report's record and mark it current so the agent-end Send can claim the
// decision.
func (tr *tracer) onMeasurement(inner core.Alg, f *core.Flow, m core.Measurement) {
	af := tr.aflow(f.Info.SID)
	i := af.rec.Load()
	if i < 0 || tr.recs[i].sid != f.Info.SID || tr.recs[i].seq != m.Seq {
		inner.OnMeasurement(f, m)
		return
	}
	r := &tr.recs[i]
	r.algIn = tr.now()
	af.cur.Store(i)
	tr.claims.Add(1)
	inner.OnMeasurement(f, m)
	tr.claims.Add(-1)
	af.cur.Store(-1)
	r.algOut = tr.now()
}

// tracedSet wraps the agent's RecvSet so ServeSet polls traced ends.
type tracedSet struct {
	tr    *tracer
	inner *shmring.Mux
	ts    []ipc.Transport
}

func (tr *tracer) wrapSet(mux *shmring.Mux) ipc.RecvSet {
	set := &tracedSet{tr: tr, inner: mux}
	for i, t := range mux.Transports() {
		e := &tracedEnd{tr: tr, ring: i, inner: t.(*shmring.Endpoint)}
		tr.ends = append(tr.ends, e)
		set.ts = append(set.ts, e)
	}
	return set
}

func (s *tracedSet) Transports() []ipc.Transport { return s.ts }

func (s *tracedSet) WaitAny() error {
	s.tr.parks.Add(1)
	return s.inner.WaitAny()
}

// tracedEnd wraps the agent end of one ring. The serve loop is the only
// caller of the receive side and the runtime serialises Sends per transport,
// so each side's fields have one writer.
type tracedEnd struct {
	tr    *tracer
	ring  int
	inner *shmring.Endpoint

	// receive side (serve goroutine)
	recvd    uint64
	frameOut int64 // when the last frame was handed to the serve loop
	dispatch acc   // frame handed out -> next poll: decode, clone, enqueue

	// send side (under the runtime's per-transport reply lock)
	dec  proto.Decoder
	send acc
}

func (e *tracedEnd) TryRecvFrame() (*bufpool.Buf, error) {
	on := e.tr.on.Load()
	if on && e.frameOut != 0 {
		e.dispatch.add(e.tr.now() - e.frameOut)
	}
	e.frameOut = 0
	f, err := e.inner.TryRecvFrame()
	if f == nil {
		return nil, err
	}
	if e.tr.upSent[e.ring].Load() <= e.recvd {
		return f, nil // not a frame the driver sent: nothing to attribute
	}
	i := e.tr.up[e.ring][e.recvd%upSlots]
	e.recvd++
	if on && i >= 0 {
		r := &e.tr.recs[i]
		r.agRecv = e.tr.now()
		e.frameOut = r.agRecv
		e.tr.aflow(r.sid).rec.Store(i)
	}
	return f, nil
}

func (e *tracedEnd) Send(msg []byte) error {
	if e.tr.claims.Load() == 0 {
		return e.inner.Send(msg)
	}
	var r *rec
	if m, err := e.dec.Unmarshal(msg); err == nil {
		if i := e.tr.aflow(m.FlowSID()).cur.Load(); i >= 0 {
			r = &e.tr.recs[i]
		}
	}
	t0 := e.tr.now()
	err := e.inner.Send(msg)
	t1 := e.tr.now()
	e.send.add(t1 - t0)
	if r != nil && r.agSendIn == 0 {
		r.agSendIn, r.agSendOut = t0, t1
	}
	return err
}

func (e *tracedEnd) RecvFrame() (*bufpool.Buf, error) { return e.inner.RecvFrame() }
func (e *tracedEnd) Recv() ([]byte, error)            { return e.inner.Recv() }
func (e *tracedEnd) Close() error                     { return e.inner.Close() }

// span is one timed interval of one report's trip. Spans of a report share
// its id; parent indexes the report's own span list, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. The loop tree partitions the report's critical path, so the
// self times under "loop" add up to the loop's duration; timer_tail and
// reply are roots of their own because they run beside the critical path
// (the driver finishing its callback, the algorithm returning, while the
// frame is already on its way).
const (
	spLoop       = "loop"
	spLate       = "driver.late"
	spTimer      = "datapath.timer"
	spOnAck      = "datapath.onack"
	spToAgent    = "driver.to_agent"
	spMarshal    = "proto.marshal"
	spSendUp     = "shmring.send_up"
	spAwait      = "driver.await"
	spTransitUp  = "shmring.transit_up"
	spMailbox    = "runtime.mailbox_wait"
	spAlg        = "algorithms.on_measurement"
	spSendDown   = "shmring.send_down"
	spTransitDn  = "shmring.transit_down"
	spUnmarshal  = "proto.unmarshal"
	spDeliver    = "datapath.deliver"
	spTimerTail  = "datapath.timer_tail"
	spReply      = "runtime.reply"
	spansPerLoop = 17
)

// spans lays out a completed record as a span tree. Stamps taken on two
// goroutines can cross by the length of a call (the agent end may poll a
// frame before the driver's Send has returned), so the agent-side chain is
// clamped into order between the driver's send and receive.
func (r *rec) spans(dst []span) []span {
	id := uint64(r.sid)<<32 | uint64(r.seq)
	add := func(name string, parent int, start, end int64) int {
		dst = append(dst, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
		return len(dst) - 1
	}
	clamp := func(v, lo, hi int64) int64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	agRecv := clamp(r.agRecv, r.taOut, r.dpRecv)
	algIn := clamp(r.algIn, agRecv, r.dpRecv)
	sendIn := clamp(r.agSendIn, algIn, r.dpRecv)
	sendOut := clamp(r.agSendOut, sendIn, r.dpRecv)

	dst = dst[:0]
	loop := add(spLoop, -1, r.due, r.delivOut)
	add(spLate, loop, r.due, r.fire)
	timer := add(spTimer, loop, r.fire, r.taOut)
	add(spOnAck, timer, r.fire, r.acked)
	toAgent := add(spToAgent, timer, r.taIn, r.taOut)
	add(spMarshal, toAgent, r.taIn, r.marshaled)
	add(spSendUp, toAgent, r.marshaled, r.taOut)
	await := add(spAwait, loop, r.taOut, r.dpRecv)
	add(spTransitUp, await, r.taOut, agRecv)
	add(spMailbox, await, agRecv, algIn)
	add(spAlg, await, algIn, sendIn)
	add(spSendDown, await, sendIn, sendOut)
	add(spTransitDn, await, sendOut, r.dpRecv)
	add(spUnmarshal, loop, r.dpRecv, r.unmarshaled)
	add(spDeliver, loop, r.delivIn, r.delivOut)
	add(spTimerTail, -1, r.taOut, r.cbRet)
	if r.algOut > r.agSendOut {
		add(spReply, -1, r.agSendOut, r.algOut)
	}
	return dst
}

// selfTimes returns, per span, its duration minus the part of it its
// children cover. Children of one parent never overlap here, so covered time
// is the sum of each child's overlap with the parent.
func selfTimes(spans []span, dst []int64) []int64 {
	dst = dst[:0]
	for _, s := range spans {
		dst = append(dst, s.End-s.Start)
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			dst[s.Parent] -= hi - lo
		}
	}
	return dst
}

// breakdown is what the records of a traced phase add up to.
type breakdown struct {
	// loops counts the completed loops broken down, loopSum is their total
	// duration and residual the part of it no stage claims: the loop span's
	// own self time.
	loops, loopSum, residual int64
	// Stage times over every record that reached the stage, answered or not.
	mailbox, alg, reply, transitUp, transitDown, report acc
}

// analyze folds the records into a breakdown and writes the spans of the
// first maxSpanLoops completed loops to path (one JSON object per line).
// Call only after the agent's goroutines have stopped.
func (tr *tracer) analyze(path string) (breakdown, error) {
	var b breakdown
	f, err := os.Create(path)
	if err != nil {
		return b, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = tr.fold(&b, enc)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return b, err
}

func (tr *tracer) fold(b *breakdown, enc *json.Encoder) error {
	spans := make([]span, 0, spansPerLoop)
	var self []int64
	for i := range tr.recs[:tr.nrec] {
		r := &tr.recs[i]
		if r.algIn != 0 && r.agRecv != 0 {
			b.mailbox.add(r.algIn - r.agRecv)
			if r.agSendIn != 0 {
				b.alg.add(r.agSendIn - r.algIn)
				b.reply.add(r.algOut - r.agSendOut)
			} else {
				b.alg.add(r.algOut - r.algIn)
			}
		}
		if r.agRecv != 0 {
			b.transitUp.add(max(r.agRecv-r.taOut, 0))
		}
		if r.cbRet != 0 {
			b.report.add((r.taIn - r.acked) + (r.cbRet - r.taOut))
		}
		// A loop is broken down only when both sides stamped it: with two
		// reports of one flow in flight the agent side keeps the newer one.
		if !r.done || r.agSendOut == 0 {
			continue
		}
		b.transitDown.add(max(r.dpRecv-r.agSendOut, 0))
		spans = r.spans(spans)
		self = selfTimes(spans, self)
		b.residual += self[0] // spans[0] is the loop
		b.loopSum += r.delivOut - r.due
		if b.loops < maxSpanLoops {
			for _, s := range spans {
				if err := enc.Encode(s); err != nil {
					return err
				}
			}
		}
		b.loops++
	}
	return nil
}
