package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

const (
	mss = 1448
	// adoptBy is how far virtual time may run past a flow's creation before
	// the agent's first decision for it has been applied. A datapath's first
	// timer is at least 50 ms out (one default RTT, scaled by at least 0.5),
	// and a report sent under the default program after the agent has already
	// installed its own would be read with the wrong field names. On real
	// links the IPC is far quicker than an RTT; free-running virtual time has
	// to be told.
	adoptBy = 20 * time.Millisecond
	// ackChunk is how many ACK samples are generated, then fed, at a time: a
	// chunk stays in L1 and lets a traced run time the OnAck calls without
	// timing the generator.
	ackChunk = 64
	// pollQuota bounds frames taken from one ring per poll, so firing timers
	// and draining decisions interleave.
	pollQuota = 64
	// stepQuota bounds timer fires between polls in closed loop.
	stepQuota = 16
)

// flow is the driver's handle on one datapath flow. Flows live in a slot
// table; a churned flow's replacement reuses the slot with the next SID that
// maps to it, so SID -> slot needs no map.
type flow struct {
	d    *driver
	sid  uint32
	conn *tcp.Conn
	ccp  *datapath.CCP

	// scale stretches this flow's timers so flows have distinct RTTs.
	// Without it every Install restarts an identical wait and the flows lock
	// into bursts. Scales are not drawn at random: the flows of one algorithm
	// take successive points of a golden-ratio sequence in [0.5, 1.5), rotated
	// by the seed, so every algorithm's flows have the same spread of report
	// rates whatever the seed — with 64 flows a random draw shifts the mix of
	// cheap and dear reports by a few percent from seed to seed.
	scale float64
	rng   uint64
	// baseRTT and rate parameterise the flow's seeded ACK stream.
	baseRTT time.Duration
	rate    float64
	// lastFeed is the virtual time up to which ACKs were fed (open loop).
	lastFeed time.Duration

	// sinceLoss counts ACKs fed since the flow's last loss.
	sinceLoss int

	// pending marks a report sent and not yet answered by a decision; due is
	// when its timer was due (ns on the driver clock).
	pending  bool
	due      int64
	rec      int32 // trace record of the pending report, -1 if none
	answered int
	decided  bool
	born     time.Duration // virtual time of creation
}

// Now and AfterFunc make *flow the netsim.Clock of its own datapath: timers
// run on the shared simulator, stretched by the flow's scale, and come back
// through the driver so it can feed ACKs before the control program resumes.
func (fl *flow) Now() time.Duration { return fl.d.sim.Now() }

func (fl *flow) AfterFunc(dur time.Duration, fn func()) netsim.Timer {
	sid := fl.sid
	return fl.d.sim.AfterFunc(time.Duration(float64(dur)*fl.scale), func() {
		if fl.sid == sid {
			fl.d.fire(fl, fn)
		}
	})
}

// next is xorshift64*: 8 bytes of state per flow, so 50k flows stay cheap.
func (fl *flow) next() uint64 {
	x := fl.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	fl.rng = x
	return x * 2685821657736338717
}

// nextAck draws the flow's next seeded ACK: RTT within 10% above the flow's
// base, rates within 10% of the flow's, one MSS acked.
func (fl *flow) nextAck(vnow time.Duration) tcp.AckSample {
	r := fl.next()
	rate := fl.rate * (0.9 + 0.2*float64((r>>16)&0xffffff)/(1<<24))
	return tcp.AckSample{
		RTT:          fl.baseRTT + time.Duration(0.1*unit(r)*float64(fl.baseRTT)),
		AckedBytes:   mss,
		SndRate:      rate,
		DeliveryRate: rate,
		InFlight:     10 * mss,
		Now:          vnow,
	}
}

// adoptee is a flow awaiting its first decision; the SID tells a slot's
// current flow from a replaced one.
type adoptee struct {
	fl  *flow
	sid uint32
}

// adoptionLag reports whether the oldest flow still awaiting its first
// decision was created more than adoptBy of virtual time ago, in which case
// virtual time must wait for the agent.
func (d *driver) adoptionLag() bool {
	for len(d.adopting) > 0 {
		a := d.adopting[0]
		if a.fl.sid == a.sid && !a.fl.decided {
			return d.sim.Now()-a.fl.born > adoptBy
		}
		d.adopting = d.adopting[1:]
	}
	return false
}

// counters are the driver's own tallies, kept for the whole life of a stack.
type counters struct {
	reports, acks              int64
	decisions, answered        int64
	framesUp, framesDown       int64
	reportBytes, decisionBytes int64
	wireBytes                  int64 // every frame, both directions
	emptyPolls                 int64
	lifecycles                 int64
	// failure tallies
	decodeErrs, unknownSID, installErrs, marshalErrs, recvErrs int64
}

// driver is the datapath half: it owns the flows, the simulator that is
// their clock, and the datapath ends of the rings, all on one goroutine.
type driver struct {
	w     workload
	seed  int64
	s     *stack
	tr    *tracer             // nil in untraced runs
	rings []*shmring.Endpoint // datapath ends
	sim   *netsim.Sim
	dec   proto.Decoder

	flows   []flow
	live    int
	decided int
	reap    []*flow // flows whose lifecycle is complete
	// adopting queues flows by creation until their first decision arrives.
	adopting []adoptee

	epoch time.Time
	// paced is set while virtual time tracks the wall clock (open loop,
	// outside set-up): vBase on the simulator corresponds to wBase on the
	// driver clock.
	paced bool
	vBase time.Duration
	wBase int64

	// firing is the flow whose timer is being handled, fireTraced whether
	// this fire is one the tracer samples.
	firing     *flow
	fireTraced bool
	buf        [ackChunk]tcp.AckSample

	c counters
	// installErr is the reason of the first Install a datapath refused.
	installErr string
	retired    dpTotals // datapath counters of flows already closed
	// loop collects report due -> decision applied, late report due -> driver
	// got to it (open loop), both in ns; nil outside measured phases.
	loop, late *hist
	initT      acc
	closeT     acc
}

func newDriver(w workload, seed int64, s *stack, tr *tracer) *driver {
	d := &driver{
		w:     w,
		seed:  seed,
		s:     s,
		tr:    tr,
		sim:   netsim.New(seed),
		rings: s.dp,
		flows: make([]flow, w.flows),
		epoch: time.Now(),
	}
	if tr != nil {
		tr.attach(d)
	}
	return d
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

func (d *driver) slot(sid uint32) int { return int((sid - 1) % uint32(len(d.flows))) }

func (d *driver) lookup(sid uint32) *flow {
	fl := &d.flows[d.slot(sid)]
	if fl.sid != sid || fl.ccp == nil {
		return nil
	}
	return fl
}

// ringFor spreads flows over the rings by SID, on different bits than the
// runtime's shard choice so rings and shards do not pair up.
func (d *driver) ringFor(sid uint32) int { return int(sid>>1) % len(d.rings) }

// splitmix64 derives per-flow parameters from the run seed and the SID.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(x uint64) float64 { return float64(x>>40) / (1 << 24) }

const goldenRatio = 0.6180339887498949

func frac(x float64) float64 { return x - math.Floor(x) }

// addFlow creates the flow with the given SID in its slot and announces it:
// datapath.New and Init, which sends Create and installs the default program.
func (d *driver) addFlow(sid uint32) {
	fl := &d.flows[d.slot(sid)]
	h := splitmix64(uint64(d.seed)<<32 | uint64(sid))
	*fl = flow{
		d:        d,
		sid:      sid,
		scale:    0.5 + frac(float64((sid-1)/uint32(len(d.w.algs)))*goldenRatio+unit(splitmix64(uint64(d.seed)))),
		rng:      h | 1,
		baseRTT:  time.Duration(10e6 + 40e6*unit(splitmix64(h))),
		rate:     1e6 + 9e6*unit(splitmix64(h+1)),
		lastFeed: d.sim.Now(),
		born:     d.sim.Now(),
		// A seeded phase, so flows do not all lose on the same round.
		sinceLoss: int(splitmix64(h+2) % lossEvery),
		rec:       -1,
	}
	d.adopting = append(d.adopting, adoptee{fl, sid})
	alg := d.w.algs[int(sid)%len(d.w.algs)]
	t0 := d.now()
	fl.ccp = datapath.New(datapath.Config{SID: sid, Alg: alg, Clock: fl, ToAgent: d.toAgent})
	fl.conn = tcp.NewConn(d.sim, netsim.FlowID(sid), nil, fl.ccp, tcp.Options{MSS: mss})
	fl.ccp.Init(fl.conn)
	d.initT.add(d.now() - t0)
	d.live++
}

// closeFlow ends a flow's lifecycle (datapath Close sends proto.Close) and
// keeps its counters.
func (d *driver) closeFlow(fl *flow) {
	t0 := d.now()
	fl.ccp.Close(fl.conn)
	d.closeT.add(d.now() - t0)
	d.retired.add(fl.ccp.Stats())
	if fl.decided {
		d.decided--
	}
	fl.ccp, fl.conn = nil, nil
	d.live--
	d.c.lifecycles++
}

func (d *driver) tracing() bool { return d.tr != nil && d.tr.on.Load() }

// toAgent is every flow's datapath.Config.ToAgent: marshal into a pooled
// frame and send on the flow's ring, exactly what a datapath shim does.
func (d *driver) toAgent(m proto.Msg) error {
	sid := m.FlowSID()
	ring := d.ringFor(sid)
	rec := int32(-1)
	isReport := false
	switch v := m.(type) {
	case *proto.Measurement:
		isReport = true
		d.c.reports++
		if fl := d.firing; fl != nil && fl.sid == sid {
			fl.pending, fl.rec = true, -1
			if d.fireTraced {
				rec = d.tr.commit(sid, v.Seq)
				fl.rec = rec
			}
		}
	case *proto.InstallErr:
		d.c.installErrs++
		if d.installErr == "" {
			d.installErr = v.Reason
		}
	}
	var t0, t1 int64
	if d.fireTraced {
		t0 = d.now()
	}
	f, err := proto.MarshalFrame(m)
	if err != nil {
		d.c.marshalErrs++
		return err
	}
	if d.tr != nil {
		// Every frame of a traced stack, sampled or not: the agent end counts
		// frames to find the k-th entry, so the two sides must stay in step.
		d.tr.pushUp(ring, rec)
		if d.fireTraced {
			t1 = d.now()
		}
	}
	err = d.rings[ring].Send(f.B)
	n := int64(len(f.B))
	f.Release()
	if d.fireTraced {
		t2 := d.now()
		d.tr.marshal.add(t1 - t0)
		d.tr.sendUp.add(t2 - t1)
		if rec >= 0 {
			r := &d.tr.recs[rec]
			r.taIn, r.marshaled, r.taOut = t0, t1, t2
		}
	}
	d.c.framesUp++
	d.c.wireBytes += n
	if isReport {
		d.c.reportBytes += n
	}
	return err
}

// fire runs when a flow's timer comes due: feed the ACKs that arrived since
// its last report, then resume the control program (which reports).
func (d *driver) fire(fl *flow, resume func()) {
	now := d.now()
	due := now
	acks := d.w.acksPerReport
	if d.w.openLoop {
		vnow := d.sim.Now()
		if d.paced {
			due = d.wBase + int64(vnow-d.vBase)
			if d.late != nil {
				d.late.add(now - due)
			}
		}
		acks = int((vnow - fl.lastFeed) / d.w.ackEvery)
		fl.lastFeed += time.Duration(acks) * d.w.ackEvery
	}
	fl.due = due
	tracing := d.tr != nil && d.tr.sample(due, now, acks)
	d.firing, d.fireTraced = fl, tracing
	d.feed(fl, acks, tracing)
	if tracing {
		d.tr.cur.acked = d.now()
	}
	resume()
	if tracing && fl.rec >= 0 {
		d.tr.recs[fl.rec].cbRet = d.now()
	}
	d.firing, d.fireTraced = nil, false
	// Losses are raised after the report, never inside the ACK batch before
	// it: the agent then answers the report first and the urgent second, so
	// the first decision after a report is the report's own.
	for fl.sinceLoss += acks; fl.sinceLoss >= lossEvery; fl.sinceLoss -= lossEvery {
		fl.ccp.OnCongestion(fl.conn, tcp.EventDupAck, mss)
	}
}

// feed pushes n seeded ACKs through the flow's datapath, a chunk at a time.
func (d *driver) feed(fl *flow, n int, tracing bool) {
	d.c.acks += int64(n)
	vnow := d.sim.Now()
	for n > 0 {
		k := min(n, ackChunk)
		n -= k
		for i := 0; i < k; i++ {
			d.buf[i] = fl.nextAck(vnow)
		}
		var t0 int64
		if tracing {
			t0 = d.now()
		}
		for i := 0; i < k; i++ {
			fl.ccp.OnAck(fl.conn, d.buf[i])
		}
		if tracing {
			d.tr.onack.addN(d.now()-t0, int64(k))
		}
	}
}

// poll drains up to pollQuota frames from each ring and applies them.
func (d *driver) poll() int {
	got := 0
	for _, ring := range d.rings {
		for q := 0; q < pollQuota; q++ {
			f, err := ring.TryRecvFrame()
			if err != nil {
				d.c.recvErrs++
			}
			if f == nil {
				break
			}
			d.handleFrame(f)
			got++
		}
	}
	if got == 0 {
		d.c.emptyPolls++
	}
	return got
}

// handleFrame decodes one agent frame and delivers its messages: the
// Decoder.Unmarshal -> proto.Split -> Deliver path of a datapath shim. A
// frame that does not decode, or names no live flow, is a failed operation.
func (d *driver) handleFrame(f *bufpool.Buf) {
	defer f.Release()
	var t0, t1 int64
	tracing := d.tracing()
	if tracing {
		t0 = d.now()
	}
	n := int64(len(f.B))
	d.c.framesDown++
	d.c.wireBytes += n
	m, err := d.dec.Unmarshal(f.B)
	if err != nil {
		d.c.decodeErrs++
		return
	}
	if tracing {
		t1 = d.now()
		d.tr.unmarshal.add(t1 - t0)
	}
	for _, sub := range proto.Split(m) {
		sid := sub.FlowSID()
		fl := d.lookup(sid)
		if fl == nil {
			// A decision for a flow already closed and replaced is expected
			// when the flow closed with a report still in flight; one for a
			// SID that never existed is a failure.
			if cur := d.flows[d.slot(sid)].sid; sid == 0 || sid >= cur {
				d.c.unknownSID++
			}
			continue
		}
		d.deliver(fl, sub, n, t0, t1)
	}
}

// deliver applies one agent message to its flow and, when it is the decision
// answering the flow's pending report, closes that report's loop.
func (d *driver) deliver(fl *flow, m proto.Msg, frameBytes, recvAt, decodedAt int64) {
	install := false
	switch m.(type) {
	case *proto.Install:
		install = true
	case *proto.SetCwnd, *proto.SetRate:
	default:
		fl.ccp.Deliver(m)
		return
	}
	// Only the decision answering a sampled report is timed and captured.
	tracing := fl.rec >= 0
	var t0 int64
	if tracing {
		t0 = d.now()
		if install {
			d.tr.capture(m.(*proto.Install))
		}
	}
	fl.ccp.Deliver(m)
	done := d.now()
	d.c.decisions++
	d.c.decisionBytes += frameBytes
	if tracing {
		if install {
			d.tr.deliverInstall.add(done - t0)
		} else {
			d.tr.deliverCtrl.add(done - t0)
		}
	}
	if !fl.decided {
		fl.decided = true
		d.decided++
	}
	if !fl.pending {
		return
	}
	fl.pending = false
	fl.answered++
	d.c.answered++
	if d.loop != nil {
		d.loop.add(done - fl.due)
	}
	// recvAt is 0 when the frame arrived after the traced phase ended.
	if tracing && recvAt != 0 {
		r := &d.tr.recs[fl.rec]
		r.dpRecv, r.unmarshaled, r.delivIn, r.delivOut = recvAt, decodedAt, t0, done
		r.install, r.done = install, true
	}
	fl.rec = -1
	if d.w.closeAfter > 0 && fl.answered >= d.w.closeAfter {
		d.reap = append(d.reap, fl)
	}
}

// churn closes every flow whose lifecycle completed and opens a replacement
// in the same slot under the next SID that maps there.
func (d *driver) churn() {
	for _, fl := range d.reap {
		sid := fl.sid
		d.closeFlow(fl)
		d.addFlow(sid + uint32(len(d.flows)))
	}
	d.reap = d.reap[:0]
}

// setup creates every flow, unpaced, with at most setupWindow Creates
// unanswered, stepping the simulator between flows so their timers start
// spread. The whole of set-up spans setupSpan of virtual time, less than the
// earliest any timer can be due (half of cubic's 50 ms wait), so no report
// fires during set-up and its work does not depend on the seed. It returns
// once every flow has had its first decision applied.
func (d *driver) setup() error {
	const setupSpan = 20 * time.Millisecond
	step := setupSpan / time.Duration(len(d.flows))
	deadline := time.Now().Add(60 * time.Second)
	for i := range d.flows {
		d.addFlow(uint32(i + 1))
		for d.live-d.decided >= setupWindow || d.adoptionLag() {
			if d.poll() == 0 && time.Now().After(deadline) {
				return fmt.Errorf("set-up wedged: %d of %d flows adopted", d.decided, d.live)
			}
		}
		d.sim.Run(d.sim.Now() + step)
		d.poll()
	}
	for d.decided < d.live {
		if d.poll() == 0 && time.Now().After(deadline) {
			return fmt.Errorf("set-up wedged: %d of %d flows adopted", d.decided, d.live)
		}
	}
	return nil
}

// drive runs the workload for dur of wall time. Open loop: virtual time
// follows the wall clock and every due timer fires; closed loop: virtual time
// runs free, one timer at a time, stalling while closedWindow reports are
// unhandled. The driver never sleeps — it polls the rings whenever it has
// nothing to fire.
func (d *driver) drive(dur time.Duration) {
	start := d.now()
	end := start + int64(dur)
	if d.w.openLoop {
		d.paced, d.vBase, d.wBase = true, d.sim.Now(), start
		for {
			now := d.now()
			if now >= end {
				break
			}
			d.sim.Run(d.vBase + time.Duration(now-d.wBase))
			d.poll()
		}
		d.paced = false
		return
	}
	for d.now() < end {
		for n := 0; n < stepQuota; n++ {
			if d.c.reports-d.s.handled.Load() >= closedWindow || d.adoptionLag() || !d.sim.Step() {
				break
			}
		}
		if d.poll() == 0 && d.c.reports-d.s.handled.Load() >= closedWindow {
			runtime.Gosched()
		}
		if len(d.reap) > 0 {
			d.churn()
		}
	}
}

// quiesce stops generating work and waits until the agent has seen every
// frame sent, its shards are idle and every reply has been applied.
func (d *driver) quiesce() error {
	deadline := time.Now().Add(20 * time.Second)
	for d.s.rt.Stats().Dispatched < d.c.framesUp {
		d.poll()
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce: agent dispatched %d of %d frames",
				d.s.rt.Stats().Dispatched, d.c.framesUp)
		}
	}
	d.s.rt.Drain()
	for d.poll() > 0 {
	}
	return nil
}
