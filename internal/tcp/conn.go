package tcp

import (
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/netsim"
)

// segment is the sender's bookkeeping for one in-flight wire packet. Under
// TSO a segment may carry several MSS units; loss and RTT accounting happen
// at this granularity.
type segment struct {
	seq    uint64
	length int
	segs   int
	sentAt time.Duration
	retx   bool // has been retransmitted (echoes ignored per Karn's rule)
	lost   bool // declared lost, retransmission pending
	sacked bool // selectively acknowledged: delivered, awaiting cumack
	// Rate-sample snapshots (Linux rate-sample / BBR style): the cumulative
	// delivered count and send position when this segment departed.
	deliveredAtSend int64
	sndNxtAtSend    uint64
}

// Conn is the sending half of a simulated flow: it transmits an unbounded
// bulk stream, subject to the congestion window and pacing rate that its
// cc.CongestionControl module sets.
type Conn struct {
	sim  *netsim.Sim
	flow netsim.FlowID
	opts Options
	out  *netsim.Link
	cc   cc.CongestionControl

	running    bool
	cwnd       int     // bytes
	pacingRate float64 // bytes/sec; 0 disables pacing

	sndUna uint64
	sndNxt uint64
	segs   []segment // in-flight, ascending seq; head is the oldest
	pipe   int       // bytes considered in flight (excludes lost-not-yet-retransmitted)

	delivered int64 // cumulative delivered bytes (rate-sample numerator)

	dupAcks    int
	inRecovery bool
	recoverSeq uint64
	retxScan   uint64 // seq from which to scan for lost segments
	// lastDeliveredSentAt is the send timestamp of the most recently
	// delivered packet (from ACK echoes), driving RACK-style loss marking:
	// anything sent well before a delivered packet and still unacked is
	// presumed lost.
	lastDeliveredSentAt time.Duration

	srtt, rttvar, minRtt time.Duration
	rtoBackoff           uint
	rtoTimer             cc.Timer
	rtoDeadline          time.Duration
	paceTimer            cc.Timer
	nextPace             time.Duration

	stats ConnStats

	// lastSample is the most recent AckSample; reports carry its rates.
	lastSample cc.AckSample
}

// NewConn creates a sender for flow id on sim, transmitting into out and
// governed by cc. Call Start to begin the bulk transfer.
func NewConn(sim *netsim.Sim, id netsim.FlowID, out *netsim.Link, ctl cc.CongestionControl, opts Options) *Conn {
	opts = opts.withDefaults()
	return &Conn{
		sim:  sim,
		flow: id,
		opts: opts,
		out:  out,
		cc:   ctl,
		cwnd: initialWindowSegs * opts.MSS,
	}
}

// Start initializes the congestion-control module and begins transmitting.
func (c *Conn) Start() {
	if c.running {
		return
	}
	// Init runs before transmission is enabled so that a module configuring
	// both window and rate does not burst unpaced in between.
	c.cc.Init(c)
	c.running = true
	c.trySend()
}

// Stop halts transmission and releases timers.
func (c *Conn) Stop() {
	if !c.running {
		return
	}
	c.running = false
	// Nil the fields after stopping: the simulator recycles timer slots, so a
	// handle is dead once stopped and must not be retained (see cc.Timer).
	if c.rtoTimer != nil {
		c.rtoTimer.Stop()
		c.rtoTimer = nil
	}
	if c.paceTimer != nil {
		c.paceTimer.Stop()
		c.paceTimer = nil
	}
	c.cc.Close(c)
}

// Handle implements netsim.Handler for the reverse (ACK) path.
func (c *Conn) Handle(p *netsim.Packet) {
	if !p.IsAck || !c.running {
		return
	}
	c.onAck(p)
}

// Accessors. All but Stats and Now are the cc.Host a congestion-control
// module steers; those two serve experiments.

// MSS returns the maximum segment size in bytes.
func (c *Conn) MSS() int { return c.opts.MSS }

// Cwnd returns the congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cwnd }

// SetCwnd sets the congestion window in bytes, floored at one MSS: the
// datapath guards itself against a misbehaving controller (§5).
func (c *Conn) SetCwnd(bytes int) {
	if bytes < c.opts.MSS {
		bytes = c.opts.MSS
	}
	c.cwnd = bytes
	c.stats.CwndSetCalls++
	c.trySend()
}

// PacingRate returns the pacing rate in bytes/sec (0 = unpaced).
func (c *Conn) PacingRate() float64 { return c.pacingRate }

// SetPacingRate sets the pacing rate in bytes/sec. Non-positive disables
// pacing. Rates below one segment per second are floored to that.
func (c *Conn) SetPacingRate(bps float64) {
	if bps <= 0 {
		c.pacingRate = 0
	} else {
		floor := float64(c.opts.MSS)
		if bps < floor {
			bps = floor
		}
		c.pacingRate = bps
	}
	c.stats.RateSetCalls++
	c.trySend()
}

// SRTT returns the smoothed RTT (0 before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// MinRTT returns the minimum observed RTT (0 before the first sample).
func (c *Conn) MinRTT() time.Duration { return c.minRtt }

// Delivered returns cumulative delivered (acked) bytes.
func (c *Conn) Delivered() int64 { return c.delivered }

// Stats returns a snapshot of the sender counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// Now returns the datapath clock.
func (c *Conn) Now() time.Duration { return c.sim.Now() }

// InRecovery reports whether the sender is in loss recovery.
func (c *Conn) InRecovery() bool { return c.inRecovery }

// Sending machinery.

// trySend transmits as much as the window and pacing allow, preferring
// retransmissions of lost segments over new data (SACK-style recovery: the
// pipe refills with repairs at line rate rather than one hole per RTT).
func (c *Conn) trySend() {
	if !c.running {
		return
	}
	for {
		li := c.nextLostIndex()
		if li >= 0 {
			seg := &c.segs[li]
			if c.pipe > 0 && c.pipe+seg.length > c.cwnd {
				return
			}
			if c.pacedOut() {
				return
			}
			c.retransmitSeg(li)
			continue
		}
		if c.pipe+c.opts.MSS > c.cwnd || len(c.segs) >= segBufferCap {
			return
		}
		if c.pacedOut() {
			return
		}
		c.sendSegment()
	}
}

// pacedOut reports whether pacing forbids sending now, scheduling a resume
// if so.
func (c *Conn) pacedOut() bool {
	if c.pacingRate <= 0 {
		return false
	}
	now := c.sim.Now()
	if now < c.nextPace {
		c.schedulePace(c.nextPace - now)
		return true
	}
	return false
}

// nextLostIndex returns the index of the first lost segment at or after the
// scan pointer, or -1. The pointer only moves forward between loss events, so
// over a window of a few hundred segments scanning is amortized O(1) per send.
//
// That stops holding once rackMarkLost has marked a long prefix. Every
// rackMarkLost call walks c.segs from index 0 across the segments already
// lost or SACKed, and pulls the pointer back to the first one it marks, so
// the next sweep here re-walks the SACKed and repaired segments between the
// holes: both are linear in the window per loss event. That cost once
// dominated the slow-agent cells, whose windows reached 461,750 segments;
// it no longer does. Since the fail-safe always probes, ablation-agentchaos
// runs whole in 0.38 s and ablation-ha in 0.76 s, and rackMarkLost plus this
// function are 1.6% of fig3's CPU and 4.9% of fig5's (amd64, two cores). The
// simulator's time goes to its event queue instead (ROADMAP item 11).
func (c *Conn) nextLostIndex() int {
	if len(c.segs) == 0 {
		return -1
	}
	i := 0
	if c.retxScan > c.segs[0].seq {
		lo, hi := 0, len(c.segs)
		for lo < hi {
			mid := (lo + hi) / 2
			if c.segs[mid].seq < c.retxScan {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i = lo
	}
	for ; i < len(c.segs); i++ {
		if c.segs[i].lost {
			c.retxScan = c.segs[i].seq
			return i
		}
	}
	c.retxScan = c.sndNxt
	return -1
}

// retransmitSeg resends segs[i], which must be marked lost.
func (c *Conn) retransmitSeg(i int) {
	seg := &c.segs[i]
	if !seg.lost {
		return
	}
	seg.lost = false
	seg.retx = true
	seg.sentAt = c.sim.Now()
	seg.deliveredAtSend = c.delivered
	seg.sndNxtAtSend = c.sndNxt
	c.pipe += seg.length
	c.advancePace(seg.length)
	c.transmit(seg, true)
	c.rearmRTO()
}

// advancePace charges one packet against the pacing budget.
func (c *Conn) advancePace(length int) {
	if c.pacingRate <= 0 {
		return
	}
	wire := float64(length + netsim.HeaderBytes)
	interval := time.Duration(wire / c.pacingRate * float64(time.Second))
	base := c.nextPace
	if now := c.sim.Now(); now > base {
		base = now
	}
	c.nextPace = base + interval
}

func (c *Conn) schedulePace(d time.Duration) {
	if c.paceTimer != nil {
		c.paceTimer.Stop()
	}
	c.paceTimer = c.sim.Schedule(d, func() {
		c.paceTimer = nil
		c.trySend()
	})
}

// sendSegment sends one wire packet of up to TSOSegs segments of new data.
func (c *Conn) sendSegment() {
	nsegs := 1
	if c.opts.TSOSegs > 1 {
		// Fill as many segments as the window allows, up to the TSO limit.
		for nsegs < c.opts.TSOSegs && c.pipe+(nsegs+1)*c.opts.MSS <= c.cwnd {
			nsegs++
		}
	}
	length := nsegs * c.opts.MSS
	now := c.sim.Now()
	seg := segment{
		seq:             c.sndNxt,
		length:          length,
		segs:            nsegs,
		sentAt:          now,
		deliveredAtSend: c.delivered,
		sndNxtAtSend:    c.sndNxt,
	}
	c.segs = append(c.segs, seg)
	c.transmit(&seg, false)
	c.sndNxt += uint64(length)
	c.pipe += length
	c.advancePace(length)
	c.armRTO()
}

// transmit puts a (re)transmission of seg on the wire.
func (c *Conn) transmit(seg *segment, isRetx bool) {
	p := &netsim.Packet{
		Flow:       c.flow,
		Seq:        seg.seq,
		Len:        seg.length,
		Segs:       seg.segs,
		IsRetx:     isRetx,
		SentAt:     c.sim.Now(),
		ECNCapable: c.opts.ECN,
	}
	c.stats.SegsSent += seg.segs
	c.stats.PktsSent++
	if isRetx {
		c.stats.Retransmits++
	}
	c.out.Enqueue(p)
}

// ACK processing.

func (c *Conn) onAck(p *netsim.Packet) {
	c.stats.AcksRcvd++
	now := c.sim.Now()

	var rtt time.Duration
	if p.EchoValid {
		if !p.EchoRetx {
			rtt = now - p.EchoTS
			c.updateRTT(rtt)
		}
		if p.EchoTS > c.lastDeliveredSentAt {
			c.lastDeliveredSentAt = p.EchoTS
		}
	}

	sample := cc.AckSample{
		RTT:          rtt,
		ECNEcho:      p.ECNEcho,
		HdrRate:      p.HdrRate,
		Now:          now,
		SndRate:      c.lastSample.SndRate,
		DeliveryRate: c.lastSample.DeliveryRate,
	}
	if p.ECNEcho {
		c.stats.ECNEchoes++
	}
	sample.SackedBytes = c.processSacks(p.Sacks)

	if p.CumAck > c.sndUna {
		acked := int(p.CumAck - c.sndUna)
		sample.AckedBytes = acked
		c.delivered += int64(acked)
		c.stats.BytesAcked += int64(acked)

		// Pop covered segments; the most recent one snapshots the rates.
		var last *segment
		for len(c.segs) > 0 && c.segs[0].seq+uint64(c.segs[0].length) <= p.CumAck {
			seg := c.segs[0]
			c.segs = c.segs[1:]
			if !seg.lost && !seg.sacked {
				c.pipe -= seg.length
			}
			last = &seg
		}
		c.sndUna = p.CumAck
		if last != nil {
			elapsed := now - last.sentAt
			if elapsed > 0 {
				sample.DeliveryRate = float64(c.delivered-last.deliveredAtSend) / elapsed.Seconds()
				sample.SndRate = float64(c.sndNxt-last.sndNxtAtSend) / elapsed.Seconds()
			}
		}

		c.dupAcks = 0
		c.rtoBackoff = 0
		if c.inRecovery {
			if c.sndUna >= c.recoverSeq {
				c.inRecovery = false
			} else {
				// Partial ACK: the new head is another hole, and RACK
				// marking sweeps any other segments that newer deliveries
				// prove lost.
				lost := c.markHeadLost()
				lost += c.rackMarkLost()
				if lost > 0 {
					sample.LostBytes += lost
					c.retransmitHead()
				}
			}
		}
		c.rearmRTO()
	} else if c.pipe > 0 || len(c.segs) > 0 {
		// Duplicate ACK.
		c.dupAcks++
		if c.dupAcks == 3 && !c.inRecovery {
			c.enterRecovery(&sample)
		}
	}

	if p.ECNEcho {
		c.cc.OnCongestion(c, cc.EventECN, 0)
	}

	sample.InFlight = c.pipe
	c.lastSample = sample
	c.cc.OnAck(c, sample)
	c.trySend()
}

// enterRecovery handles the third duplicate ACK: fast retransmit plus a
// RACK sweep over the whole in-flight window.
func (c *Conn) enterRecovery(sample *cc.AckSample) {
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.stats.FastRetx++
	lost := c.markHeadLost()
	lost += c.rackMarkLost()
	sample.LostBytes += lost
	c.cc.OnCongestion(c, cc.EventDupAck, lost)
	c.retransmitHead()
}

// rackMarkLost marks every unacked, unmarked segment sent more than a
// reordering window before the most recently delivered packet as lost
// (RACK, RFC 8985 in miniature). It returns the bytes newly marked.
func (c *Conn) rackMarkLost() int {
	if c.lastDeliveredSentAt == 0 {
		return 0
	}
	reo := c.srtt / 8
	thresh := c.lastDeliveredSentAt - reo
	lost := 0
	for i := range c.segs {
		seg := &c.segs[i]
		if seg.sentAt >= thresh {
			if seg.retx {
				// Retransmissions carry fresh timestamps out of sequence
				// order; skip them and keep scanning originals.
				continue
			}
			// Originals are sent in sequence order, so every later
			// segment is at least this recent: stop scanning.
			break
		}
		if seg.lost || seg.sacked {
			continue
		}
		seg.lost = true
		c.pipe -= seg.length
		if c.retxScan > seg.seq {
			c.retxScan = seg.seq
		}
		lost += seg.length
	}
	return lost
}

// processSacks applies SACK blocks: fully covered segments leave the pipe
// and are shielded from loss marking and retransmission. A segment
// previously marked lost that turns out to be SACKed is un-marked (its
// retransmission may still be in flight; that is TCP's lot too). Returns
// the bytes newly SACKed.
func (c *Conn) processSacks(sacks [][2]uint64) int {
	newly := 0
	for _, r := range sacks {
		i := c.findSegIndex(r[0])
		for ; i < len(c.segs); i++ {
			seg := &c.segs[i]
			if seg.seq >= r[1] {
				break
			}
			if seg.sacked || seg.seq < r[0] || seg.seq+uint64(seg.length) > r[1] {
				continue
			}
			if !seg.lost {
				c.pipe -= seg.length
			}
			seg.lost = false
			seg.sacked = true
			newly += seg.length
		}
	}
	return newly
}

// findSegIndex returns the index of the first segment with seq >= target.
func (c *Conn) findSegIndex(target uint64) int {
	lo, hi := 0, len(c.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.segs[mid].seq < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// markHeadLost declares the head segment lost if it is not already, and
// returns the bytes newly marked.
func (c *Conn) markHeadLost() int {
	if len(c.segs) == 0 {
		return 0
	}
	head := &c.segs[0]
	if head.lost || head.sacked {
		return 0
	}
	head.lost = true
	c.pipe -= head.length
	if c.retxScan > head.seq {
		c.retxScan = head.seq
	}
	return head.length
}

// retransmitHead resends the head segment (which must be marked lost).
func (c *Conn) retransmitHead() {
	if len(c.segs) == 0 || !c.segs[0].lost {
		return
	}
	c.retransmitSeg(0)
}

// RTT estimation (RFC 6298 coefficients).

func (c *Conn) updateRTT(rtt time.Duration) {
	c.stats.RTTSamples++
	if c.minRtt == 0 || rtt < c.minRtt {
		c.minRtt = rtt
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
		return
	}
	diff := c.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

// rto returns the current retransmission timeout with backoff.
func (c *Conn) rto() time.Duration {
	rto := c.srtt + 4*c.rttvar
	if rto < c.opts.MinRTO {
		rto = c.opts.MinRTO
	}
	return rto << c.rtoBackoff
}

// armRTO starts the retransmission timer if it is not already pending. It
// deliberately does NOT push an existing deadline out: the timer guards the
// *oldest* outstanding segment, and refreshing it on every transmission
// would let a continuously sending (rate-limited) flow starve its own RTO.
func (c *Conn) armRTO() {
	if len(c.segs) == 0 || !c.running || c.rtoTimer != nil {
		return
	}
	c.rtoDeadline = c.sim.Now() + c.rto()
	c.rtoTimer = c.sim.Schedule(c.rto(), c.rtoFire)
}

// rearmRTO pushes the deadline out after forward progress (a cumulative ACK
// or a retransmission of the oldest hole). The timer itself is lazy: it
// re-checks the live deadline when it fires, so re-arming is O(1).
func (c *Conn) rearmRTO() {
	if len(c.segs) == 0 || !c.running {
		return
	}
	c.rtoDeadline = c.sim.Now() + c.rto()
	if c.rtoTimer == nil {
		c.rtoTimer = c.sim.Schedule(c.rto(), c.rtoFire)
	}
}

// rtoFire checks the live deadline; a deadline pushed into the future just
// reschedules the timer for the remainder.
func (c *Conn) rtoFire() {
	c.rtoTimer = nil
	if !c.running || len(c.segs) == 0 {
		return
	}
	now := c.sim.Now()
	if now < c.rtoDeadline {
		c.rtoTimer = c.sim.Schedule(c.rtoDeadline-now, c.rtoFire)
		return
	}
	c.onTimeout()
}

// onTimeout handles an RTO: every in-flight segment is presumed lost.
func (c *Conn) onTimeout() {
	c.rtoTimer = nil
	if !c.running || len(c.segs) == 0 {
		return
	}
	c.stats.Timeouts++
	lost := 0
	for i := range c.segs {
		if !c.segs[i].lost && !c.segs[i].sacked {
			c.segs[i].lost = true
			lost += c.segs[i].length
		}
	}
	c.pipe = 0
	c.dupAcks = 0
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.retxScan = c.sndUna
	if c.rtoBackoff < 16 {
		c.rtoBackoff++
	}
	c.cc.OnCongestion(c, cc.EventTimeout, lost)
	c.retransmitHead()
	c.trySend()
}
