package cc

// Reno and NewReno are the floor every host carries, as Linux keeps Reno in
// tcp_cong.c: the CCP datapath falls back to NewReno when the agent goes
// silent (§5), and it is the paper's Figure 4 baseline.

// Reno is classic AIMD congestion control: slow start to ssthresh,
// additive increase of one segment per RTT, multiplicative decrease by half
// on loss, collapse to one segment on timeout.
type Reno struct {
	ssthresh int // bytes
	acked    int // byte accumulator for congestion avoidance
}

// NewReno-style recovery mechanics (fast retransmit, partial-ACK hole
// repair) live in the host (internal/tcp); the distinction between Reno
// and NewReno at the congestion-avoidance level is the window kept during
// recovery, which both set to ssthresh = cwnd/2.

// NewRenoCC returns a Reno congestion controller.
func NewRenoCC() *Reno { return &Reno{} }

// Name implements CongestionControl.
func (r *Reno) Name() string { return "reno" }

// Init implements CongestionControl.
func (r *Reno) Init(h Host) {
	r.ssthresh = 1 << 30
	r.acked = 0
}

// OnAck implements CongestionControl.
func (r *Reno) OnAck(h Host, s AckSample) {
	if s.AckedBytes <= 0 || h.InRecovery() {
		return
	}
	mss := h.MSS()
	cwnd := h.Cwnd()
	if cwnd < r.ssthresh {
		// Slow start: one segment per acked segment.
		h.SetCwnd(cwnd + s.AckedBytes)
		return
	}
	// Congestion avoidance: one segment per window.
	r.acked += s.AckedBytes
	if r.acked >= cwnd {
		r.acked -= cwnd
		h.SetCwnd(cwnd + mss)
	}
}

// OnCongestion implements CongestionControl.
func (r *Reno) OnCongestion(h Host, ev CongEvent, lostBytes int) {
	mss := h.MSS()
	switch ev {
	case EventDupAck:
		r.ssthresh = max(h.Cwnd()/2, 2*mss)
		h.SetCwnd(r.ssthresh)
	case EventTimeout:
		r.ssthresh = max(h.Cwnd()/2, 2*mss)
		h.SetCwnd(mss)
	case EventECN:
		// Classic Reno treats ECN like loss once per window; keep the
		// conservative halving.
		r.ssthresh = max(h.Cwnd()/2, 2*mss)
		h.SetCwnd(r.ssthresh)
	}
}

// Close implements CongestionControl.
func (r *Reno) Close(h Host) {}

// NewRenoStyle is NewReno as the paper's Figure 4 baseline: Reno congestion
// avoidance with the window held at ssthresh throughout fast recovery. The
// partial-ACK hole repair that distinguishes NewReno from Reno lives in the
// host (internal/tcp), which retransmits one hole per partial ACK; this
// module additionally avoids re-halving for loss events within one recovery
// episode.
type NewRenoStyle struct {
	reno       Reno
	inRecovery bool
}

// NewNewReno returns a NewReno congestion controller.
func NewNewReno() *NewRenoStyle { return &NewRenoStyle{} }

// Name implements CongestionControl.
func (n *NewRenoStyle) Name() string { return "newreno" }

// Init implements CongestionControl.
func (n *NewRenoStyle) Init(h Host) {
	n.reno.Init(h)
	n.inRecovery = false
}

// OnAck implements CongestionControl.
func (n *NewRenoStyle) OnAck(h Host, s AckSample) {
	if n.inRecovery && !h.InRecovery() {
		n.inRecovery = false
	}
	n.reno.OnAck(h, s)
}

// OnCongestion implements CongestionControl.
func (n *NewRenoStyle) OnCongestion(h Host, ev CongEvent, lostBytes int) {
	switch ev {
	case EventDupAck:
		if n.inRecovery {
			return // one halving per recovery episode
		}
		n.inRecovery = true
		n.reno.OnCongestion(h, ev, lostBytes)
	case EventTimeout:
		n.inRecovery = false
		n.reno.OnCongestion(h, ev, lostBytes)
	case EventECN:
		n.reno.OnCongestion(h, ev, lostBytes)
	}
}

// Close implements CongestionControl.
func (n *NewRenoStyle) Close(h Host) {}
