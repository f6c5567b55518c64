package datapath_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

func TestSmoothCwndRampsIncreases(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{SmoothCwnd: true})
	r.flow.Conn.Start()
	r.sim.Run(200 * time.Millisecond) // establish srtt (~10ms)
	base := r.flow.Conn.Cwnd()

	target := base + 100*1448
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: uint32(target)})
	// Immediately after delivery, only the first quarter-step has applied.
	mid := r.flow.Conn.Cwnd()
	if mid >= target {
		t.Fatalf("increase applied as a step: %d -> %d", base, mid)
	}
	if mid <= base {
		t.Fatal("no first step applied")
	}
	// Within ~1.5 RTTs the ramp completes.
	r.sim.Run(220 * time.Millisecond)
	if got := r.flow.Conn.Cwnd(); got != target {
		t.Fatalf("ramp did not complete: %d, want %d", got, target)
	}
}

func TestSmoothCwndDecreasesImmediately(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{SmoothCwnd: true})
	r.flow.Conn.Start()
	r.sim.Run(200 * time.Millisecond)
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: 200 * 1448})
	r.sim.Run(400 * time.Millisecond)
	// A decrease must take effect at once (safety).
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: 10 * 1448})
	if got := r.flow.Conn.Cwnd(); got != 10*1448 {
		t.Fatalf("decrease delayed: cwnd=%d", got)
	}
}

func TestSmoothCwndRetargetsMidRamp(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{SmoothCwnd: true})
	r.flow.Conn.Start()
	r.sim.Run(200 * time.Millisecond)
	base := r.flow.Conn.Cwnd()
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: uint32(base + 100*1448)})
	// Retarget lower before the ramp completes: applies immediately.
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: uint32(base)})
	r.sim.Run(300 * time.Millisecond)
	if got := r.flow.Conn.Cwnd(); got != base {
		t.Fatalf("stale ramp kept running: cwnd=%d, want %d", got, base)
	}
}

func TestSmoothCwndDisabledIsStep(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.sim.Run(100 * time.Millisecond)
	target := r.flow.Conn.Cwnd() + 100*1448
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: uint32(target)})
	if got := r.flow.Conn.Cwnd(); got != target {
		t.Fatalf("step mode did not apply directly: %d, want %d", got, target)
	}
}
