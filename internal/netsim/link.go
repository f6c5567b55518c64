package netsim

import (
	"fmt"
	"time"
)

// LinkConfig describes a unidirectional link with a drop-tail queue.
type LinkConfig struct {
	// RateBps is the link rate in bits per second.
	RateBps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueBytes is the drop-tail buffer capacity in bytes. Zero means a
	// generous default (16 BDP-ish is not computable here, so 1 MiB).
	QueueBytes int
	// ECNThresholdBytes, when >0, marks ECN-capable packets CE when the
	// instantaneous queue occupancy at enqueue is at or above the threshold
	// (DCTCP-style step marking).
	ECNThresholdBytes int
	// LossProb drops packets at random with this probability (applied on
	// enqueue, before the buffer), modelling non-congestive loss.
	LossProb float64
}

// LinkStats aggregates what the link observed.
type LinkStats struct {
	Enqueued        int
	DeliveredPkts   int
	DeliveredBytes  int64 // wire bytes delivered
	DroppedOverflow int
	DroppedRandom   int
	Marked          int
	MaxQueueBytes   int
}

// Link is a unidirectional link: serialization at RateBps, then propagation
// Delay, then delivery to Dst. Enqueue may drop (buffer overflow or random
// loss) or CE-mark packets. All scheduling happens on the owning Sim.
type Link struct {
	sim *Sim
	cfg LinkConfig
	dst Handler

	q      []*Packet
	qBytes int
	busy   bool
	stats  LinkStats

	// OnDequeue, if set, observes each packet as it begins transmission; it is
	// the hook routers use to stamp XCP-style header feedback.
	OnDequeue func(p *Packet, queueBytes int)
}

// NewLink creates a link on sim delivering to dst.
func NewLink(sim *Sim, cfg LinkConfig, dst Handler) *Link {
	if cfg.RateBps <= 0 {
		panic("netsim: link rate must be positive")
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 1 << 20
	}
	return &Link{sim: sim, cfg: cfg, dst: dst}
}

// SetRate changes the link rate at runtime (packets already in service
// finish at the old rate). Used to model variable links — cellular
// capacity swings, mid-experiment bandwidth changes.
func (l *Link) SetRate(bps float64) {
	if bps > 0 {
		l.cfg.RateBps = bps
	}
}

// OscillateRate varies the link rate sinusoidally around base with the
// given relative amplitude (0..1) and period, re-evaluated every period/16.
// It models a cellular-style variable link. Returns a stop function.
//
//lint:testsupport the variable link of algorithms' TestSproutOnOscillatingLink and netsim's TestOscillateRateVaries
func OscillateRate(sim *Sim, l *Link, base, amplitude float64, period time.Duration) (stop func()) {
	if amplitude < 0 {
		amplitude = 0
	}
	if amplitude > 0.95 {
		amplitude = 0.95
	}
	stopped := false
	step := period / 16
	var tick func()
	phase := 0
	tick = func() {
		if stopped {
			return
		}
		// Piecewise-sinusoid via a 16-point table (no math import needed).
		f := sin16[phase%16]
		phase++
		l.SetRate(base * (1 + amplitude*f))
		sim.Schedule(step, tick)
	}
	sim.Schedule(0, tick)
	return func() { stopped = true }
}

// sin16 is one period of a sine wave sampled at 16 points.
var sin16 = [16]float64{
	0, 0.3827, 0.7071, 0.9239, 1, 0.9239, 0.7071, 0.3827,
	0, -0.3827, -0.7071, -0.9239, -1, -0.9239, -0.7071, -0.3827,
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Enqueue offers a packet to the link. It may be dropped or marked.
func (l *Link) Enqueue(p *Packet) {
	l.stats.Enqueued++
	if l.cfg.LossProb > 0 && l.sim.Rand().Float64() < l.cfg.LossProb {
		l.stats.DroppedRandom++
		return
	}
	wire := p.Wire()
	if l.qBytes+wire > l.cfg.QueueBytes {
		l.stats.DroppedOverflow++
		return
	}
	if l.cfg.ECNThresholdBytes > 0 && p.ECNCapable && l.qBytes >= l.cfg.ECNThresholdBytes {
		p.Marked = true
		l.stats.Marked++
	}
	l.q = append(l.q, p)
	l.qBytes += wire
	if l.qBytes > l.stats.MaxQueueBytes {
		l.stats.MaxQueueBytes = l.qBytes
	}
	if !l.busy {
		l.busy = true
		l.transmitNext()
	}
}

// transmitNext serializes the head-of-line packet and schedules its delivery.
func (l *Link) transmitNext() {
	if len(l.q) == 0 {
		l.busy = false
		return
	}
	p := l.q[0]
	l.q = l.q[1:]
	wire := p.Wire()
	l.qBytes -= wire
	if l.OnDequeue != nil {
		l.OnDequeue(p, l.qBytes)
	}
	serialization := time.Duration(float64(wire*8) / l.cfg.RateBps * float64(time.Second))
	if serialization <= 0 {
		serialization = time.Nanosecond
	}
	l.sim.Schedule(serialization, func() {
		l.stats.DeliveredPkts++
		l.stats.DeliveredBytes += int64(wire)
		dst := l.dst
		l.sim.Schedule(l.cfg.Delay, func() {
			if dst != nil {
				dst.Handle(p)
			}
		})
		l.transmitNext()
	})
}

// Utilization returns delivered wire bytes as a fraction of link capacity
// over the elapsed duration.
func (l *Link) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	capacity := l.cfg.RateBps / 8 * elapsed.Seconds()
	if capacity <= 0 {
		return 0
	}
	return float64(l.stats.DeliveredBytes) / capacity
}

// String describes the link for logs.
func (l *Link) String() string {
	return fmt.Sprintf("link(%.0fbps, %v, buf=%dB)", l.cfg.RateBps, l.cfg.Delay, l.cfg.QueueBytes)
}
