package netsim

// FairStamper is an XCP-style router assist: attached to a link's OnDequeue
// hook, it stamps each data packet's header-rate field with the flow's
// fair share of the link — capacity divided by the number of recently
// active flows, shaded down when the queue is standing. Receivers echo the
// stamp on ACKs, giving explicit rate feedback to the sender.
type FairStamper struct {
	link *Link
	// active tracks flows seen in the current accounting window.
	active map[FlowID]struct{}
	count  int // flow count frozen from the previous window
	seen   int // dequeues since the window began
	window int // dequeues per accounting window
}

// NewFairStamper attaches a stamper to link and returns it.
//
//lint:testsupport the router assist of algorithms' TestCCPXCPAdoptsRouterRate and TestCCPXCPSharesFairly, tested by netsim's TestFairStamper*
func NewFairStamper(link *Link) *FairStamper {
	s := &FairStamper{
		link:   link,
		active: make(map[FlowID]struct{}),
		count:  1,
		window: 64,
	}
	link.OnDequeue = s.stamp
	return s
}

// stamp computes the per-flow fair rate at dequeue time.
func (s *FairStamper) stamp(p *Packet, queueBytes int) {
	if p.IsAck {
		return
	}
	s.active[p.Flow] = struct{}{}
	s.seen++
	if s.seen >= s.window {
		s.count = len(s.active)
		if s.count < 1 {
			s.count = 1
		}
		s.active = make(map[FlowID]struct{})
		s.seen = 0
	}
	// Fair share of capacity in bytes/sec, reduced when a queue is
	// standing so that queues drain (XCP's efficiency controller in
	// miniature: shed 10% while backlogged beyond one packet).
	share := s.link.cfg.RateBps / 8 / float64(s.count)
	if queueBytes > 2*p.Wire() {
		share *= 0.90
	}
	p.HdrRate = share
}

// FlowCount returns the current active-flow estimate.
func (s *FairStamper) FlowCount() int { return s.count }
