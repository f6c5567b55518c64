package nativecc

import (
	"time"

	"github.com/ccp-repro/ccp/internal/tcp"
)

// Vegas is delay-based congestion control following the structure of the
// Linux tcp_vegas implementation: once per RTT it estimates the number of
// segments queued in the network (diff = cwnd * (rtt - baseRTT) / rtt).
// During slow start it exits as soon as diff exceeds gamma, clamping the
// window to the target; in congestion avoidance it holds diff between
// alpha and beta.
type Vegas struct {
	alpha, beta, gamma float64 // queued-segment thresholds

	baseRTT  time.Duration
	minRTT   time.Duration // min within the current RTT epoch
	cntRTT   int
	epochEnd int64 // delivered-byte count that ends the epoch
	ssthresh int
}

// NewVegas returns a Vegas controller with the Linux defaults (alpha=2,
// beta=4, gamma=1); alpha/beta match the paper's §2.4 example.
//
//lint:testsupport the in-datapath baseline of nativecc's TestVegasLowDelay and tcp's TestVegasKeepsQueueShort and TestInvariantsUnderRandomLoss
func NewVegas() *Vegas { return &Vegas{alpha: 2, beta: 4, gamma: 1} }

// Name implements tcp.CongestionControl.
func (v *Vegas) Name() string { return "vegas" }

// Init implements tcp.CongestionControl.
func (v *Vegas) Init(c *tcp.Conn) {
	v.ssthresh = 1 << 30
	v.baseRTT = 0
	v.resetEpoch(c)
}

func (v *Vegas) resetEpoch(c *tcp.Conn) {
	v.minRTT = 1 << 62
	v.cntRTT = 0
	v.epochEnd = c.Delivered() + int64(c.Cwnd())
}

// OnAck implements tcp.CongestionControl.
func (v *Vegas) OnAck(c *tcp.Conn, s tcp.AckSample) {
	if s.RTT > 0 {
		if v.baseRTT == 0 || s.RTT < v.baseRTT {
			v.baseRTT = s.RTT
		}
		if s.RTT < v.minRTT {
			v.minRTT = s.RTT
		}
		v.cntRTT++
	}
	if s.AckedBytes <= 0 || c.InRecovery() {
		return
	}

	// Once per RTT (one cwnd's worth of deliveries), run the Vegas update.
	if c.Delivered() >= v.epochEnd {
		v.epochUpdate(c)
		v.resetEpoch(c)
	}

	// Slow start doubles per ACK until ssthresh (clamped by epochUpdate).
	if cwnd := c.Cwnd(); cwnd < v.ssthresh {
		c.SetCwnd(cwnd + s.AckedBytes)
	}
}

func (v *Vegas) epochUpdate(c *tcp.Conn) {
	mss := c.MSS()
	cwnd := c.Cwnd()
	if v.cntRTT <= 2 || v.baseRTT == 0 || v.minRTT >= 1<<62 {
		// Not enough samples this RTT: Reno-style additive increase.
		if cwnd >= v.ssthresh {
			c.SetCwnd(cwnd + mss)
		}
		return
	}
	rtt := v.minRTT
	// target: the window that fits the pipe with no queueing (bytes).
	target := float64(cwnd) * float64(v.baseRTT) / float64(rtt)
	// diff: estimated segments queued at the bottleneck.
	diff := float64(cwnd-int(target)) / float64(mss)

	switch {
	case diff > v.gamma && cwnd < v.ssthresh:
		// Slow-start overshoot: clamp to target and leave slow start.
		newCwnd := minInt(cwnd, int(target)+mss)
		c.SetCwnd(newCwnd)
		v.ssthresh = minInt(v.ssthresh, maxInt(newCwnd-mss, 2*mss))
	case cwnd < v.ssthresh:
		// Still in slow start; per-ACK doubling continues elsewhere.
	case diff > v.beta:
		c.SetCwnd(cwnd - mss)
		v.ssthresh = minInt(v.ssthresh, maxInt(cwnd-2*mss, 2*mss))
	case diff < v.alpha:
		c.SetCwnd(cwnd + mss)
	}
}

// OnCongestion implements tcp.CongestionControl.
func (v *Vegas) OnCongestion(c *tcp.Conn, ev tcp.CongEvent, lostBytes int) {
	mss := c.MSS()
	switch ev {
	case tcp.EventDupAck, tcp.EventECN:
		v.ssthresh = maxInt(c.Cwnd()/2, 2*mss)
		c.SetCwnd(v.ssthresh)
	case tcp.EventTimeout:
		v.ssthresh = maxInt(c.Cwnd()/2, 2*mss)
		c.SetCwnd(mss)
	}
}

// Close implements tcp.CongestionControl.
func (v *Vegas) Close(c *tcp.Conn) {}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
