package cc

import (
	"testing"
	"time"
)

// host is a Host with nothing behind it: the window and rate are fields, and
// SetCwnd floors at one MSS as every host does.
type host struct {
	mss, cwnd  int
	rate       float64
	inRecovery bool
}

func (h *host) MSS() int                  { return h.mss }
func (h *host) Cwnd() int                 { return h.cwnd }
func (h *host) SetCwnd(bytes int)         { h.cwnd = max(bytes, h.mss) }
func (h *host) PacingRate() float64       { return h.rate }
func (h *host) SetPacingRate(bps float64) { h.rate = bps }
func (h *host) SRTT() time.Duration       { return 0 }
func (h *host) MinRTT() time.Duration     { return 0 }
func (h *host) InRecovery() bool          { return h.inRecovery }
func (h *host) Delivered() int64          { return 0 }

func TestRenoSsthreshAfterTimeout(t *testing.T) {
	// After a timeout the window collapses to one MSS and slow-starts back
	// to half the window it had.
	h := &host{mss: 1448, cwnd: 10 * 1448}
	r := NewRenoCC()
	r.Init(h)
	for i := 0; i < 40; i++ {
		r.OnAck(h, AckSample{AckedBytes: h.mss})
	}
	pre := h.Cwnd()
	if pre != 50*h.mss {
		t.Fatalf("slow start reached %d, want %d", pre, 50*h.mss)
	}
	r.OnCongestion(h, EventTimeout, 0)
	if h.Cwnd() != h.MSS() {
		t.Fatalf("cwnd after timeout = %d, want 1 MSS", h.Cwnd())
	}
	if r.ssthresh != pre/2 {
		t.Fatalf("ssthresh=%d, want %d", r.ssthresh, pre/2)
	}
	for h.Cwnd() < r.ssthresh {
		r.OnAck(h, AckSample{AckedBytes: h.mss})
	}
	if h.Cwnd() != pre/2 {
		t.Fatalf("slow start after timeout stopped at %d, want %d", h.Cwnd(), pre/2)
	}
	r.OnAck(h, AckSample{AckedBytes: h.mss})
	if h.Cwnd() != pre/2 {
		t.Fatalf("one ACK in congestion avoidance grew cwnd to %d", h.Cwnd())
	}
}
