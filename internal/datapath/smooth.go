package datapath

import "github.com/ccp-repro/ccp/internal/cc"

// Smooth window transitions (§3 future work, Config.SmoothCwnd; also the
// fail-safe layer's handoff ramp).

// smoother is one flow's window ramp. A flow gets one the first time an
// increase is to be ramped, which under SmoothCwnd is its first increase and
// otherwise its first increase inside a handoff window.
type smoother struct {
	target int // the window the ramp is climbing to; 0 when none is in progress
	step   int
	timer  cc.Timer
}

// cancelRamp abandons a ramp in progress; the window stays where it got to.
func (d *CCP) cancelRamp() {
	if d.smooth != nil {
		d.smooth.target = 0
	}
}

// applyCwnd routes a window update through the smoothing ramp when enabled:
// increases are applied in steps over roughly one RTT so a per-RTT window
// jump does not dump a burst into the network (§3 future work); decreases
// and the non-smoothed path apply directly. Increases ramp always under
// SmoothCwnd, and during the post-fallback handoff window under the liveness
// layer.
func (d *CCP) applyCwnd(target int) {
	if d.host == nil {
		return
	}
	ramping := d.cfg.SmoothCwnd || d.handingOff()
	if !ramping || target <= d.host.Cwnd() {
		d.cancelRamp()
		d.host.SetCwnd(target)
		return
	}
	if d.smooth == nil {
		d.smooth = &smoother{}
	}
	sm := d.smooth
	sm.target = target
	sm.step = (target - d.host.Cwnd() + 3) / 4
	if sm.step < d.host.MSS() {
		sm.step = d.host.MSS()
	}
	if sm.timer == nil {
		d.smoothStep()
	}
}

// smoothStep advances a quarter of the original increase every srtt/4, so
// the ramp completes in roughly one round trip.
func (d *CCP) smoothStep() {
	sm := d.smooth
	sm.timer = nil
	if d.host == nil || sm.target == 0 {
		return
	}
	cur := d.host.Cwnd()
	if cur >= sm.target {
		sm.target = 0
		return
	}
	next := cur + sm.step
	if next >= sm.target {
		next = sm.target
	}
	d.host.SetCwnd(next)
	if next < sm.target {
		sm.timer = d.cfg.Clock.AfterFunc(d.rttDur(0.25), d.smoothStep)
	} else {
		sm.target = 0
	}
}

// stopSmoothing cancels the ramp's timer when the flow closes.
func (d *CCP) stopSmoothing() {
	if d.smooth != nil {
		stopTimer(&d.smooth.timer)
	}
}
