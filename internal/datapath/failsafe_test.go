package datapath_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

func livenessCfg(budget time.Duration) datapath.Config {
	return datapath.Config{StalenessBudget: budget}
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
	// Agent returns: once it has decided and its echoes bring the probe
	// score back, the flow leaves fallback.
	r.agent = r.returned
	r.awaitExit(t, time.Second)
	st := r.dp.Stats()
	if st.FallbackOff != 1 || st.HandoffRamps != 1 {
		t.Fatalf("stats=%+v, want one ramped exit", st)
	}
	// Its first decision is a much larger window: the handoff must ramp, not
	// step — immediately after delivery the window is above where it was
	// but still short of the target.
	target := r.flow.Conn.Cwnd() * 8
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 100, Bytes: uint32(target)})
	if got := r.flow.Conn.Cwnd(); got >= target {
		t.Fatalf("cwnd=%d jumped straight to target %d (no ramp)", got, target)
	}
	// The ramp completes within ~a round trip.
	r.sim.Run(r.sim.Now() + 100*time.Millisecond)
	if got := r.flow.Conn.Cwnd(); got != target {
		t.Fatalf("cwnd=%d never reached target %d", got, target)
	}
}

// A uniformly slow agent, with only the staleness budget set: it answers
// every report with a decision and every probe with its echo, each 1.4 s
// late. Its decisions stop for one slow round trip, so the budget hands the
// flow to the fallback; then the backlog's decisions arrive at the report
// cadence, each fresh by sequence and stale by the clock. The probes on the
// watchdog's tick keep the flow in fallback until the agent heals, and it
// leaves once, on healthy echoes.
func TestSlowAgentKeepsFallbackUntilHealed(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(500*time.Millisecond))
	lag := time.Millisecond
	// steered counts late decisions that moved the window while the fallback
	// held the flow before and after: NewReno keeps it until the exit.
	steered := 0
	r.agent = func(m proto.Msg) {
		switch m := m.(type) {
		case *proto.Measurement:
			set := &proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: 30000}
			r.sim.Schedule(lag, func() {
				held, cwnd := r.dp.FallbackActive(), r.flow.Conn.Cwnd()
				r.dp.Deliver(set)
				if held && r.dp.FallbackActive() && r.flow.Conn.Cwnd() != cwnd {
					steered++
				}
			})
		case *proto.Heartbeat:
			r.sim.Schedule(lag, func() { r.dp.Deliver(m) })
		}
	}
	r.flow.Conn.Start()

	r.sim.Run(time.Second)
	if r.dp.FallbackActive() {
		t.Fatal("fallback with a healthy agent")
	}
	lag = 1400 * time.Millisecond
	r.sim.Run(2 * time.Second)
	if !r.dp.FallbackActive() {
		t.Fatalf("a slow agent's silence did not enter fallback: %+v", r.dp.Stats())
	}
	entered := r.dp.Stats()
	r.sim.Run(5 * time.Second)
	st := r.dp.Stats()
	if st.SetCwndRecvd <= entered.SetCwndRecvd {
		t.Fatalf("no late decision arrived in fallback: %+v", st)
	}
	if !r.dp.FallbackActive() || st.FallbackOn != 1 || st.FallbackOff != 0 {
		t.Fatalf("a slow agent's late decisions took the flow out of fallback: %+v", st)
	}
	if steered != 0 {
		t.Fatalf("%d late SetCwnds set the window under the fallback", steered)
	}

	lag = time.Millisecond
	r.sim.Run(7 * time.Second)
	st = r.dp.Stats()
	if r.dp.FallbackActive() || st.FallbackOn != 1 || st.FallbackOff != 1 || st.ProbeExits != 1 {
		t.Fatalf("want one exit, by the probes, after the heal: %+v", st)
	}
}

// An agent whose runtime answers probes but whose flow decides nothing (a
// restarted agent that has not taken the flow's Create, or a control channel
// that loses what it sends) keeps the flow in fallback: healthy echoes show
// the agent answers, not that the flow is controlled.
func TestEchoesAloneDoNotExitFallback(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, livenessCfg(500*time.Millisecond))
	r.agent = r.echoProbes
	r.flow.Conn.Start()
	r.sim.Run(5 * time.Second)
	st := r.dp.Stats()
	if !r.dp.FallbackActive() || st.FallbackOn != 1 || st.FallbackOff != 0 || st.ProbeEchoes == 0 {
		t.Fatalf("want one entry and no exit on echoes alone: %+v", st)
	}
	// A decision closes the loop: the flow leaves on it, the score healthy.
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: 30000})
	if st := r.dp.Stats(); r.dp.FallbackActive() || st.FallbackOff != 1 {
		t.Fatalf("a fresh decision with healthy probes did not exit: %+v", st)
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
	// While the transport still says gone, neither a healthy echo (one
	// arrives at the first tick, 2.5 s in) nor a straggling queued decision
	// may exit fallback.
	r.agent = r.echoProbes
	r.sim.Run(3 * time.Second)
	if st := r.dp.Stats(); !r.dp.FallbackActive() || st.ProbeEchoes == 0 {
		t.Fatalf("fallback %v with the agent still gone: %+v", r.dp.FallbackActive(), st)
	}
	// Nor may it steer the flow: the fallback keeps the window and pacing.
	cwnd := r.flow.Conn.Cwnd()
	r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 4, Bytes: 90000})
	r.dp.Deliver(&proto.SetRate{SID: 1, Seq: 5, Bps: 1e6})
	if !r.dp.FallbackActive() {
		t.Fatal("straggler decision exited fallback while agent still gone")
	}
	if got, rate := r.flow.Conn.Cwnd(), r.flow.Conn.PacingRate(); got != cwnd || rate != 0 {
		t.Fatalf("stragglers set cwnd %d -> %d, pacing %v under the fallback", cwnd, got, rate)
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
	// A negative budget is off too, as zero is.
	for _, budget := range []time.Duration{0, -time.Second} {
		r := newRig(t, link8(), tcp.Options{}, datapath.Config{StalenessBudget: budget})
		r.flow.Conn.Start()
		r.dp.AgentGone(true)
		r.sim.Run(100 * time.Millisecond)
		if r.dp.FallbackActive() {
			t.Fatalf("budget %v: AgentGone engaged fallback with the liveness layer disabled", budget)
		}
		if st := r.dp.Stats(); st.AgentGoneSignals != 0 || st.ProbesSent != 0 {
			t.Fatalf("budget %v: stats=%+v", budget, st)
		}
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
