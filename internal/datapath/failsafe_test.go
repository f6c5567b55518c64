package datapath_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

func livenessCfg(budget time.Duration) datapath.Config {
	return datapath.Config{Liveness: datapath.LivenessConfig{StalenessBudget: budget}}
}

func TestLivenessEntersFallbackOnStaleControl(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(200*time.Millisecond))
	r.flow.Conn.Start()
	// Keep feeding control for a while, then go silent.
	r.sim.Run(50 * time.Millisecond)
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 1, Bytes: 50000})
	if r.dp.FallbackActive() {
		t.Fatal("fallback active with fresh control")
	}
	r.sim.Run(600 * time.Millisecond)
	if !r.dp.FallbackActive() {
		t.Fatal("staleness budget blown but fallback not active")
	}
	st := r.dp.Stats()
	if st.FallbackOn != 1 || st.LivenessStale != 1 {
		t.Fatalf("stats=%+v, want one stale-triggered activation", st)
	}
	if st.AgentGoneSignals != 0 {
		t.Fatalf("unexpected agent-gone signals: %+v", st)
	}
	// Degraded mode keeps re-announcing the flow.
	if st.Resyncs == 0 {
		t.Fatal("no resyncs while degraded")
	}
}

func TestLivenessEntryHalvesCwndAndClearsRate(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(200*time.Millisecond))
	r.flow.Conn.Start()
	r.sim.Run(10 * time.Millisecond)
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 1, Bytes: 80000})
	r.dp.Deliver(&proto.SetRate{SID: 1, Seq: 2, Bps: 100e3}) // a throttling stale cap
	before := r.flow.Conn.Cwnd()
	if before != 80000 {
		t.Fatalf("cwnd=%d before fallback", before)
	}
	r.sim.Run(500 * time.Millisecond)
	if !r.dp.FallbackActive() {
		t.Fatal("fallback not active")
	}
	// Entry halves the window (the fallback may have grown it again since,
	// but with the 100kbps pacing cap cleared and NewReno in charge it must
	// sit well below the stale 80000 and above the two-segment floor).
	cwnd := r.flow.Conn.Cwnd()
	if cwnd >= before {
		t.Fatalf("cwnd=%d not reduced from %d on fallback entry", cwnd, before)
	}
	if cwnd < 2*r.flow.Conn.MSS() {
		t.Fatalf("cwnd=%d below two segments", cwnd)
	}
	if r.flow.Conn.PacingRate() != 0 {
		t.Fatalf("stale pacing cap %v survived fallback entry", r.flow.Conn.PacingRate())
	}
}

func TestLivenessExitRampsWindow(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(200*time.Millisecond))
	r.flow.Conn.Start()
	r.sim.Run(600 * time.Millisecond) // enter fallback
	if !r.dp.FallbackActive() {
		t.Fatal("fallback not active")
	}
	small := r.flow.Conn.Cwnd()
	// Agent returns with a much larger window: the handoff must ramp, not
	// step — immediately after delivery the window is above where it was
	// but still short of the target.
	target := small * 8
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 100, Bytes: uint32(target)})
	if r.dp.FallbackActive() {
		t.Fatal("fresh decision did not exit fallback")
	}
	st := r.dp.Stats()
	if st.FallbackOff != 1 || st.HandoffRamps != 1 {
		t.Fatalf("stats=%+v, want one ramped exit", st)
	}
	if got := r.flow.Conn.Cwnd(); got >= target {
		t.Fatalf("cwnd=%d jumped straight to target %d (no ramp)", got, target)
	}
	// The ramp completes within ~a round trip.
	r.sim.Run(r.sim.Now() + 100*time.Millisecond)
	if got := r.flow.Conn.Cwnd(); got != target {
		t.Fatalf("cwnd=%d never reached target %d", got, target)
	}
}

func TestAgentGoneEntersImmediately(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(10*time.Second))
	r.flow.Conn.Start()
	r.sim.Run(20 * time.Millisecond)
	r.dp.AgentGone(true)
	if !r.dp.FallbackActive() {
		t.Fatal("explicit gone signal did not enter fallback (budget far away)")
	}
	st := r.dp.Stats()
	if st.AgentGoneSignals != 1 || st.LivenessStale != 0 {
		t.Fatalf("stats=%+v, want gone-triggered entry", st)
	}
	// While the transport still says gone, a straggling queued decision must
	// not exit fallback.
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 5, Bytes: 90000})
	if !r.dp.FallbackActive() {
		t.Fatal("straggler decision exited fallback while agent still gone")
	}
	// Link back + fresh decision: exit.
	r.dp.AgentGone(false)
	if !r.dp.FallbackActive() {
		t.Fatal("link-back alone must not exit fallback")
	}
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 6, Bytes: 90000})
	if r.dp.FallbackActive() {
		t.Fatal("fresh decision after link-back did not exit fallback")
	}
}

func TestAgentGoneNoopWhenLivenessDisabled(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	r.dp.AgentGone(true)
	if r.dp.FallbackActive() {
		t.Fatal("AgentGone engaged fallback with the liveness layer disabled")
	}
	if st := r.dp.Stats(); st.AgentGoneSignals != 0 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestStalenessClocksPerKind(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(10*time.Second))
	r.flow.Conn.Start()
	r.sim.Run(100 * time.Millisecond)
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 1, Bytes: 50000})
	r.sim.Run(150 * time.Millisecond)
	r.dp.Deliver(&proto.SetRate{SID: 1, Seq: 2, Bps: 1e6})
	r.sim.Run(250 * time.Millisecond)
	st := r.dp.Staleness()
	if st.Rate >= st.Cwnd {
		t.Fatalf("rate clock %v not fresher than cwnd clock %v", st.Rate, st.Cwnd)
	}
	if st.Any != st.Rate {
		t.Fatalf("any=%v, want the freshest (%v)", st.Any, st.Rate)
	}
	if st.Install <= st.Cwnd {
		t.Fatalf("install clock %v should be the stalest (init-time), cwnd %v", st.Install, st.Cwnd)
	}
}

func TestCtrlSeqWraparoundDoesNotBlackhole(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	// Serial-number comparison only orders seqs within a half-window, so walk
	// lastCtrlSeq up to the edge of the space before crossing it.
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 1<<31 - 1, Bytes: 30000})
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: ^uint32(0) - 1, Bytes: 40000})
	if got := r.flow.Conn.Cwnd(); got != 40000 {
		t.Fatalf("cwnd=%d before wrap, want 40000", got)
	}
	// The agent's counter wraps (skipping 0): the next decision arrives as
	// seq 1 and must be applied, not dropped as stale forever.
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 1, Bytes: 50000})
	if got := r.flow.Conn.Cwnd(); got != 50000 {
		t.Fatalf("cwnd=%d: post-wrap decision dropped — flow blackholed", got)
	}
	// A replayed pre-wrap decision is stale now.
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: ^uint32(0) - 1, Bytes: 40000})
	if got := r.flow.Conn.Cwnd(); got != 50000 {
		t.Fatalf("cwnd=%d: replayed pre-wrap decision applied", got)
	}
	st := r.dp.Stats()
	if st.SetCwndRecvd != 3 || st.StaleCtrlDropped != 1 {
		t.Fatalf("stats=%+v, want 3 applied / 1 stale-dropped", st)
	}
}
