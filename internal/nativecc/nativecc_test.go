package nativecc

import (
	"math"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/tcp"
)

func TestCubeRootAccuracy(t *testing.T) {
	for _, x := range []float64{0.001, 0.5, 1, 2, 8, 27, 1000, 12345.678, 1e6} {
		got := CubeRoot(x)
		want := math.Cbrt(x)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("CubeRoot(%v)=%v, want ~%v", x, got, want)
		}
	}
}

func TestCubeRootEdgeCases(t *testing.T) {
	if CubeRoot(0) != 0 || CubeRoot(-5) != 0 {
		t.Fatal("non-positive inputs must return 0")
	}
}

func runFlow(t *testing.T, ctl cc.CongestionControl, link netsim.LinkConfig, dur time.Duration) (*tcp.Flow, *netsim.Path) {
	t.Helper()
	sim := netsim.New(1)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: link}, fwd, rev)
	f := tcp.NewFlow(sim, 1, path, fwd, rev, ctl, tcp.Options{})
	f.Conn.Start()
	sim.Run(dur)
	return f, path
}

func bottleneck1BDP() netsim.LinkConfig {
	// 16 Mbit/s, 10 ms RTT, 1 BDP buffer.
	return netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 20000}
}

func TestRenoAchievesUtilization(t *testing.T) {
	_, path := runFlow(t, cc.NewRenoCC(), bottleneck1BDP(), 30*time.Second)
	if u := path.Forward.Utilization(30 * time.Second); u < 0.75 {
		t.Fatalf("reno utilization %.2f", u)
	}
}

func TestNewRenoAchievesUtilization(t *testing.T) {
	_, path := runFlow(t, cc.NewNewReno(), bottleneck1BDP(), 30*time.Second)
	if u := path.Forward.Utilization(30 * time.Second); u < 0.75 {
		t.Fatalf("newreno utilization %.2f", u)
	}
}

func TestCubicAchievesUtilization(t *testing.T) {
	_, path := runFlow(t, NewCubic(), bottleneck1BDP(), 30*time.Second)
	if u := path.Forward.Utilization(30 * time.Second); u < 0.85 {
		t.Fatalf("cubic utilization %.2f", u)
	}
}

func TestVegasLowDelay(t *testing.T) {
	link := netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20}
	f, path := runFlow(t, NewVegas(), link, 20*time.Second)
	if u := path.Forward.Utilization(20 * time.Second); u < 0.8 {
		t.Fatalf("vegas utilization %.2f", u)
	}
	// Vegas holds only alpha..beta packets queued: srtt stays near 10 ms.
	if srtt := f.Conn.SRTT(); srtt > 18*time.Millisecond {
		t.Fatalf("vegas srtt %v, want < 18ms", srtt)
	}
}

func TestCubicBeatsRenoOnLongFat(t *testing.T) {
	// On a high-BDP path, CUBIC should recover to full utilization faster
	// than Reno after drops — the reason it replaced Reno as the default.
	link := netsim.LinkConfig{RateBps: 200e6, Delay: 25 * time.Millisecond, QueueBytes: 200e6 / 8 * 0.05}
	_, pr := runFlow(t, cc.NewRenoCC(), link, 60*time.Second)
	_, pc := runFlow(t, NewCubic(), link, 60*time.Second)
	ur := pr.Forward.Utilization(60 * time.Second)
	uc := pc.Forward.Utilization(60 * time.Second)
	if uc <= ur {
		t.Fatalf("cubic (%.3f) not better than reno (%.3f) on long-fat path", uc, ur)
	}
}

func TestNewRenoSingleHalvingPerEpisode(t *testing.T) {
	sim := netsim.New(1)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	link := netsim.LinkConfig{RateBps: 16e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20}
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: link}, fwd, rev)
	n := cc.NewNewReno()
	f := tcp.NewFlow(sim, 1, path, fwd, rev, n, tcp.Options{})
	f.Conn.Start()
	sim.Run(time.Second)
	f.Conn.SetCwnd(100 * f.Conn.MSS())
	n.OnCongestion(f.Conn, cc.EventDupAck, f.Conn.MSS())
	after1 := f.Conn.Cwnd()
	n.OnCongestion(f.Conn, cc.EventDupAck, f.Conn.MSS())
	if f.Conn.Cwnd() != after1 {
		t.Fatalf("second dupack inside recovery re-halved: %d -> %d", after1, f.Conn.Cwnd())
	}
}

func TestNamesStable(t *testing.T) {
	if cc.NewRenoCC().Name() != "reno" || cc.NewNewReno().Name() != "newreno" ||
		NewCubic().Name() != "cubic" || NewVegas().Name() != "vegas" {
		t.Fatal("algorithm names changed")
	}
}
