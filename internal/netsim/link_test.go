package netsim

import (
	"testing"
	"time"
)

// collect gathers delivered packets with their delivery times.
type collect struct {
	sim  *Sim
	pkts []*Packet
	at   []time.Duration
}

func (c *collect) Handle(p *Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.sim.Now())
}

func mkPkt(flow FlowID, length int) *Packet {
	return &Packet{Flow: flow, Len: length, Segs: 1}
}

func TestLinkDeliveryTiming(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	// 8 Mbit/s => 1e6 bytes/sec; a 960-byte payload +40 header = 1000 wire
	// bytes => 1ms serialization; +5ms propagation = 6ms delivery.
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond}, dst)
	l.Enqueue(mkPkt(1, 960))
	s.Run(time.Second)
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(dst.pkts))
	}
	if got, want := dst.at[0], 6*time.Millisecond; got != want {
		t.Fatalf("delivered at %v, want %v", got, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0}, dst)
	l.Enqueue(mkPkt(1, 960))
	l.Enqueue(mkPkt(1, 960))
	s.Run(time.Second)
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets", len(dst.pkts))
	}
	if dst.at[0] != time.Millisecond || dst.at[1] != 2*time.Millisecond {
		t.Fatalf("delivery times %v", dst.at)
	}
}

func TestLinkDropTail(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	// Queue fits exactly two wire packets of 1000B.
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0, QueueBytes: 2000}, dst)
	for i := 0; i < 5; i++ {
		l.Enqueue(mkPkt(1, 960))
	}
	s.Run(time.Second)
	st := l.Stats()
	// The first packet starts transmitting immediately (leaves the queue),
	// so 3 fit (1 in service + 2 queued) and 2 drop.
	if len(dst.pkts) != 3 || st.DroppedOverflow != 2 {
		t.Fatalf("delivered=%d dropped=%d", len(dst.pkts), st.DroppedOverflow)
	}
}

func TestLinkECNMarking(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0, QueueBytes: 1 << 20, ECNThresholdBytes: 1500}, dst)
	for i := 0; i < 4; i++ {
		p := mkPkt(1, 960)
		p.ECNCapable = true
		l.Enqueue(p)
	}
	s.Run(time.Second)
	marked := 0
	for _, p := range dst.pkts {
		if p.Marked {
			marked++
		}
	}
	// Packet 0 enters service immediately (queue 0), packet 1 sees 0 queued
	// bytes... wait: packet 0 dequeues synchronously, so packet 1 sees
	// qBytes=0? No: transmitNext pops packet 0 immediately, so packet 1
	// enqueues with qBytes=0, packet 2 with 1000, packet 3 with 2000. With
	// threshold 1500, only packet 3 is marked.
	if marked != 1 {
		t.Fatalf("marked=%d, want 1", marked)
	}
	if l.Stats().Marked != 1 {
		t.Fatalf("stats.Marked=%d", l.Stats().Marked)
	}
}

func TestLinkECNIgnoresNonCapable(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0, ECNThresholdBytes: 1}, dst)
	for i := 0; i < 4; i++ {
		l.Enqueue(mkPkt(1, 960)) // not ECN capable
	}
	s.Run(time.Second)
	if l.Stats().Marked != 0 {
		t.Fatal("marked non-ECN-capable packets")
	}
}

func TestLinkRandomLossDeterministic(t *testing.T) {
	run := func() int {
		s := New(99)
		dst := &collect{sim: s}
		l := NewLink(s, LinkConfig{RateBps: 8e9, Delay: 0, LossProb: 0.3}, dst)
		for i := 0; i < 1000; i++ {
			l.Enqueue(mkPkt(1, 960))
		}
		s.Run(time.Second)
		return len(dst.pkts)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("loss not deterministic: %d vs %d", a, b)
	}
	if a < 550 || a > 850 {
		t.Fatalf("delivered %d of 1000 with p=0.3; implausible", a)
	}
}

func TestLinkUtilization(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0}, dst)
	// Saturate for 100ms: capacity = 1e6 B/s * 0.1s = 100000 B = 100 pkts.
	for i := 0; i < 100; i++ {
		l.Enqueue(mkPkt(1, 960))
	}
	s.Run(100 * time.Millisecond)
	u := l.Utilization(100 * time.Millisecond)
	if u < 0.99 || u > 1.01 {
		t.Fatalf("utilization=%v, want ~1", u)
	}
}

func TestLinkOnDequeueHook(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0}, dst)
	var seen int
	l.OnDequeue = func(p *Packet, qb int) { seen++ }
	l.Enqueue(mkPkt(1, 100))
	l.Enqueue(mkPkt(1, 100))
	s.Run(time.Second)
	if seen != 2 {
		t.Fatalf("hook saw %d packets", seen)
	}
}

func TestLinkMaxQueueStat(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0, QueueBytes: 1 << 20}, dst)
	for i := 0; i < 10; i++ {
		l.Enqueue(mkPkt(1, 960))
	}
	if l.Stats().MaxQueueBytes != 9000 {
		// Packet 0 in service; 9 queued x 1000B.
		t.Fatalf("MaxQueueBytes=%d, want 9000", l.Stats().MaxQueueBytes)
	}
	s.Run(time.Second)
}

func TestPathRoundTrip(t *testing.T) {
	s := New(1)
	var gotFwd, gotRev *Packet
	var fwdAt, revAt time.Duration
	cfg := PathConfig{Bottleneck: LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond}}
	var p *Path
	p = NewPath(s, cfg,
		HandlerFunc(func(pk *Packet) {
			gotFwd, fwdAt = pk, s.Now()
			ack := &Packet{Flow: pk.Flow, IsAck: true, CumAck: pk.Seq + uint64(pk.Len)}
			p.Reverse.Enqueue(ack)
		}),
		HandlerFunc(func(pk *Packet) { gotRev, revAt = pk, s.Now() }))
	p.Forward.Enqueue(mkPkt(7, 960))
	s.Run(time.Second)
	if gotFwd == nil || gotRev == nil {
		t.Fatal("packet or ack not delivered")
	}
	if gotRev.CumAck != 960 {
		t.Fatalf("ack=%d", gotRev.CumAck)
	}
	// Forward: 1ms serialization + 5ms prop. Reverse: 40B at 32Mbps = 10µs,
	// +5ms prop.
	if fwdAt != 6*time.Millisecond {
		t.Fatalf("fwdAt=%v", fwdAt)
	}
	if revAt <= fwdAt || revAt > fwdAt+6*time.Millisecond {
		t.Fatalf("revAt=%v", revAt)
	}
}

func TestDemuxRouting(t *testing.T) {
	d := NewDemux()
	var a, b, def int
	d.Register(1, HandlerFunc(func(*Packet) { a++ }))
	d.Register(2, HandlerFunc(func(*Packet) { b++ }))
	d.Handle(&Packet{Flow: 1})
	d.Handle(&Packet{Flow: 2})
	d.Handle(&Packet{Flow: 3}) // dropped: no default
	d.Default = HandlerFunc(func(*Packet) { def++ })
	d.Handle(&Packet{Flow: 9})
	if a != 1 || b != 1 || def != 1 {
		t.Fatalf("a=%d b=%d def=%d", a, b, def)
	}
}

func TestPacketWire(t *testing.T) {
	p := &Packet{Len: 1460}
	if p.Wire() != 1500 {
		t.Fatalf("wire=%d", p.Wire())
	}
	p.WireLen = 777
	if p.Wire() != 777 {
		t.Fatalf("wire override=%d", p.Wire())
	}
	ack := &Packet{IsAck: true}
	if ack.Wire() != HeaderBytes {
		t.Fatalf("ack wire=%d", ack.Wire())
	}
}

func TestSetRateTakesEffect(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0}, dst)
	l.Enqueue(mkPkt(1, 960)) // serializes in 1ms at 8Mbps
	s.Run(time.Second)
	l.SetRate(80e6)
	l.Enqueue(mkPkt(1, 960)) // 0.1ms at 80Mbps
	s.Run(2 * time.Second)
	if len(dst.at) != 2 {
		t.Fatalf("delivered=%d", len(dst.at))
	}
	if got := dst.at[1] - time.Second; got != 100*time.Microsecond {
		t.Fatalf("fast-rate delivery took %v, want 100µs", got)
	}
	// Non-positive rates are ignored.
	l.SetRate(0)
	if l.cfg.RateBps != 80e6 {
		t.Fatal("zero rate applied")
	}
}

func TestOscillateRateVaries(t *testing.T) {
	s := New(1)
	dst := &collect{sim: s}
	l := NewLink(s, LinkConfig{RateBps: 8e6, Delay: 0}, dst)
	stop := OscillateRate(s, l, 8e6, 0.5, 100*time.Millisecond)
	lo, hi := 1e18, 0.0
	for ms := 5; ms <= 200; ms += 5 {
		s.Run(time.Duration(ms) * time.Millisecond)
		r := l.cfg.RateBps
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo > 4.5e6 || hi < 11.5e6 {
		t.Fatalf("oscillation range [%.3g, %.3g], want ~[4e6, 12e6]", lo, hi)
	}
	stop()
	at := l.cfg.RateBps
	s.Run(time.Second)
	if l.cfg.RateBps != at {
		t.Fatal("oscillation continued after stop")
	}
}
