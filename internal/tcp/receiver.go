package tcp

import (
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/netsim"
)

// Receiver is the receiving half of a simulated flow: it delivers in-order
// bytes, buffers out-of-order arrivals as SACK ranges, and generates
// cumulative ACKs that echo timestamps, ECN marks, SACK blocks, and
// router-stamped header feedback.
type Receiver struct {
	sim  *netsim.Sim
	flow netsim.FlowID
	opts Options
	out  *netsim.Link

	rcvNxt uint64
	ooo    []sackRange // sorted by start, disjoint, above rcvNxt
	// lastChanged indexes the most recently created/extended range in ooo;
	// it is advertised first, as TCP SACK requires, so the sender learns
	// about every delivery even when ranges outnumber the block limit.
	lastChanged int
	sinceAck    int // segments (not wire packets) since the last ACK
	ackTimer    cc.Timer
	// pending echo for a timer-driven delayed ACK
	pendingEcho     time.Duration
	pendingEchoRetx bool

	ceSeen  bool // CE observed since the last ACK (echoed once, DCTCP-style)
	hdrRate float64

	stats ReceiverStats
}

// sackRange is a received byte range [Start, End).
type sackRange struct {
	Start, End uint64
}

// NewReceiver creates the receiving endpoint for flow id, sending ACKs into
// out (the reverse path).
func NewReceiver(sim *netsim.Sim, id netsim.FlowID, out *netsim.Link, opts Options) *Receiver {
	return &Receiver{
		sim:  sim,
		flow: id,
		opts: opts.withDefaults(),
		out:  out,
	}
}

// Stats returns a snapshot of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Delivered returns the in-order bytes delivered so far.
func (r *Receiver) Delivered() int64 { return r.stats.BytesDelivered }

// Handle implements netsim.Handler for the forward (data) path.
func (r *Receiver) Handle(p *netsim.Packet) {
	if p.IsAck {
		return
	}
	r.stats.PktsRcvd++
	segs := p.Segs
	if segs <= 0 {
		segs = 1
	}
	r.stats.SegsRcvd += segs
	if p.Marked {
		r.stats.CEMarks++
		r.ceSeen = true
	}
	if p.HdrRate > 0 {
		r.hdrRate = p.HdrRate
	}

	ackNow := false
	end := p.Seq + uint64(p.Len)
	switch {
	case p.Seq == r.rcvNxt:
		r.advance(uint64(p.Len))
		// Consume ranges now contiguous with rcvNxt.
		for len(r.ooo) > 0 && r.ooo[0].Start <= r.rcvNxt {
			if r.ooo[0].End > r.rcvNxt {
				r.advance(r.ooo[0].End - r.rcvNxt)
			}
			r.ooo = r.ooo[1:]
			if r.lastChanged > 0 {
				r.lastChanged--
			}
		}
	case end <= r.rcvNxt:
		r.stats.Duplicates++
		ackNow = true
	default:
		if r.insertRange(p.Seq, end) {
			r.stats.OutOfOrder++
		} else {
			r.stats.Duplicates++
		}
		ackNow = true // out-of-order arrivals ACK immediately (dup ACKs)
	}

	r.sinceAck += segs
	if ackNow || r.sinceAck >= r.opts.AckEvery {
		r.sendAck(p.SentAt, p.IsRetx)
		return
	}
	// Delayed ACK: never hold an acknowledgment longer than the timer
	// (RFC 1122's 500 ms bound; Linux uses ~40 ms).
	r.pendingEcho = p.SentAt
	r.pendingEchoRetx = p.IsRetx
	if r.ackTimer == nil {
		r.ackTimer = r.sim.Schedule(delayedAckTimeout, func() {
			r.ackTimer = nil
			if r.sinceAck > 0 {
				r.sendAck(r.pendingEcho, r.pendingEchoRetx)
			}
		})
	}
}

// delayedAckTimeout bounds how long a delayed ACK may be withheld.
const delayedAckTimeout = 40 * time.Millisecond

// insertRange merges [s, e) into the out-of-order set and reports whether
// any new bytes were added.
func (r *Receiver) insertRange(s, e uint64) bool {
	if s < r.rcvNxt {
		s = r.rcvNxt
	}
	if e <= s {
		return false
	}
	// Find insertion window: ranges overlapping or adjacent to [s, e).
	i := 0
	for i < len(r.ooo) && r.ooo[i].End < s {
		i++
	}
	j := i
	newBytes := e - s
	start, end := s, e
	for j < len(r.ooo) && r.ooo[j].Start <= e {
		old := r.ooo[j]
		newBytes -= overlap(s, e, old.Start, old.End)
		if old.Start < start {
			start = old.Start
		}
		if old.End > end {
			end = old.End
		}
		j++
	}
	if newBytes == 0 && j > i {
		// Entirely covered by existing ranges.
		r.lastChanged = i
		return false
	}
	merged := sackRange{Start: start, End: end}
	r.ooo = append(r.ooo[:i], append([]sackRange{merged}, r.ooo[j:]...)...)
	r.lastChanged = i
	return newBytes > 0
}

func overlap(s1, e1, s2, e2 uint64) uint64 {
	s := s1
	if s2 > s {
		s = s2
	}
	e := e1
	if e2 < e {
		e = e2
	}
	if e <= s {
		return 0
	}
	return e - s
}

func (r *Receiver) advance(n uint64) {
	r.rcvNxt += n
	r.stats.BytesDelivered += int64(n)
}

func (r *Receiver) sendAck(echo time.Duration, echoRetx bool) {
	r.sinceAck = 0
	// A pending delayed-ACK timer is left to fire and no-op (sinceAck is
	// zero by then) rather than being cancelled: stopping and recreating a
	// timer per ACK would churn the event queue at line rate.
	r.stats.AcksSent++
	var sacks [][2]uint64
	if n := len(r.ooo); n > 0 {
		// Most recently changed block first, then subsequent ranges in
		// sequence order, wrapping — every range is eventually advertised.
		first := r.lastChanged
		if first >= n {
			first = 0
		}
		for k := 0; k < n && len(sacks) < netsim.MaxSackRanges; k++ {
			rg := r.ooo[(first+k)%n]
			sacks = append(sacks, [2]uint64{rg.Start, rg.End})
		}
	}
	ack := &netsim.Packet{
		Flow:      r.flow,
		IsAck:     true,
		CumAck:    r.rcvNxt,
		EchoTS:    echo,
		EchoValid: true,
		EchoRetx:  echoRetx,
		ECNEcho:   r.ceSeen,
		Sacks:     sacks,
		HdrRate:   r.hdrRate,
	}
	r.ceSeen = false
	r.out.Enqueue(ack)
}

// Flow wires a complete single flow over a path: sender, receiver, and the
// demux registrations on both directions.
type Flow struct {
	Conn     *Conn
	Receiver *Receiver
}

// NewFlow creates and registers a flow's endpoints over path: data flows
// through path.Forward to the receiver (via fwdDemux), ACKs through
// path.Reverse back to the sender (via revDemux).
func NewFlow(sim *netsim.Sim, id netsim.FlowID, path *netsim.Path, fwdDemux, revDemux *netsim.Demux, ctl cc.CongestionControl, opts Options) *Flow {
	conn := NewConn(sim, id, path.Forward, ctl, opts)
	recv := NewReceiver(sim, id, path.Reverse, opts)
	fwdDemux.Register(id, recv)
	revDemux.Register(id, conn)
	return &Flow{Conn: conn, Receiver: recv}
}
