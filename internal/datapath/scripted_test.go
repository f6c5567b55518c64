package datapath_test

import (
	"slices"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// A datapath needs from its host only cc.Host and a cc.Clock. These tests
// drive one through a whole control episode on a host and a clock with
// nothing behind them: no transport, no simulator.

const scriptMSS = 1448

// scriptHost is a cc.Host that is only its fields. Like every host it floors
// the window at one MSS.
type scriptHost struct {
	cwnd int
	rate float64
}

func newScriptHost() *scriptHost { return &scriptHost{cwnd: 10 * scriptMSS} } // IW10, as tcp.Conn

func (h *scriptHost) MSS() int                  { return scriptMSS }
func (h *scriptHost) Cwnd() int                 { return h.cwnd }
func (h *scriptHost) SetCwnd(bytes int)         { h.cwnd = max(bytes, scriptMSS) }
func (h *scriptHost) PacingRate() float64       { return h.rate }
func (h *scriptHost) SetPacingRate(bps float64) { h.rate = max(bps, 0) }
func (h *scriptHost) SRTT() time.Duration       { return 0 }
func (h *scriptHost) MinRTT() time.Duration     { return 0 }
func (h *scriptHost) InRecovery() bool          { return false }
func (h *scriptHost) Delivered() int64          { return 0 }

// stepClock is a cc.Clock that moves only when run. Timers due at the same
// instant fire in the order they were set, as the simulator's do.
type stepClock struct {
	now    time.Duration
	timers []*stepTimer // in the order set
}

type stepTimer struct {
	at time.Duration
	fn func() // nil once fired or stopped
}

func (t *stepTimer) Stop() bool {
	pending := t.fn != nil
	t.fn = nil
	return pending
}

func (c *stepClock) Now() time.Duration { return c.now }

func (c *stepClock) AfterFunc(d time.Duration, fn func()) cc.Timer {
	t := &stepTimer{at: c.now + d, fn: fn}
	c.timers = append(c.timers, t)
	return t
}

// run fires every timer due by until, earliest first, then stands at until.
func (c *stepClock) run(until time.Duration) {
	for {
		c.timers = slices.DeleteFunc(c.timers, func(t *stepTimer) bool { return t.fn == nil })
		next := -1
		for i, t := range c.timers {
			if t.at <= until && (next < 0 || t.at < c.timers[next].at) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := c.timers[next]
		fn := t.fn
		t.fn = nil
		c.now = t.at
		fn()
	}
	c.now = max(c.now, until)
}

// episode is what a scripted run saw: the host's window after every step,
// and the type of every message the flow sent.
type episode struct {
	cwnds []int
	sent  []proto.MsgType
}

// runEpisode drives a flow with a 200 ms staleness budget (the budget of
// TestLivenessEntersFallbackOnStaleControl) through Init, a whole Install,
// ACKs and a report, the agent's last decision, silence until the watchdog
// hands the flow to the fallback, ACKs under the fallback, a fresh decision
// and its handoff ramp, and Close. run steps clock to an absolute time.
func runEpisode(t *testing.T, h cc.Host, clock cc.Clock, run func(time.Duration)) episode {
	t.Helper()
	var ep episode
	dp := datapath.New(datapath.Config{
		SID:      1,
		Clock:    clock,
		Liveness: datapath.LivenessConfig{StalenessBudget: 200 * time.Millisecond},
		ToAgent: func(m proto.Msg) error {
			ep.sent = append(ep.sent, m.Type())
			return nil
		},
	})
	step := func() { ep.cwnds = append(ep.cwnds, h.Cwnd()) }
	acks := func(n int) {
		for i := 0; i < n; i++ {
			dp.OnAck(h, cc.AckSample{RTT: 10 * time.Millisecond, AckedBytes: scriptMSS, Now: clock.Now()})
			step()
		}
	}

	dp.Init(h)
	step()
	prog, err := lang.MarshalProgram(lang.NewProgram().WaitRtts(1).Report().MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	dp.Deliver(&proto.Install{SID: 1, Seq: 1, Prog: prog})
	if st := dp.Stats(); st.InstallsRecvd != 1 {
		t.Fatalf("whole Install not applied: %+v", st)
	}
	step()
	acks(8)
	run(100 * time.Millisecond) // WaitRtts(1) with no SRTT yet: the report
	step()
	dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 2, Bytes: 50000})
	step()
	if h.Cwnd() != 50000 {
		t.Fatalf("cwnd=%d after SetCwnd 50000", h.Cwnd())
	}

	// Silent for 200 ms: the watchdog, ticking every 50 ms, enters the
	// fallback at the first tick past the budget.
	run(300 * time.Millisecond)
	if dp.FallbackActive() {
		t.Fatal("fallback entered within the staleness budget")
	}
	run(350 * time.Millisecond)
	if !dp.FallbackActive() {
		t.Fatal("staleness budget blown but fallback not active")
	}
	step()
	if want := max(50000/2, 2*scriptMSS); h.Cwnd() != want {
		t.Fatalf("cwnd=%d on fallback entry, want %d (half, floor two segments)", h.Cwnd(), want)
	}
	acks(40) // the fallback's congestion avoidance: one MSS per window acked

	dp.Deliver(&proto.SetCwnd{SID: 1, Seq: 3, Bytes: 100000})
	if dp.FallbackActive() {
		t.Fatal("fresh decision did not exit fallback")
	}
	step()
	for at := 375 * time.Millisecond; at <= 500*time.Millisecond; at += 25 * time.Millisecond {
		run(at) // the handoff ramp, a quarter of the window gap per step
		step()
	}
	if h.Cwnd() != 100000 {
		t.Fatalf("cwnd=%d after the handoff ramp, want 100000", h.Cwnd())
	}

	dp.Close(h)
	n := len(ep.sent)
	run(2 * time.Second)
	if len(ep.sent) != n {
		t.Fatalf("closed flow sent %v", ep.sent[n:])
	}
	step()
	st := dp.Stats()
	if st.FallbackOn != 1 || st.FallbackOff != 1 || st.LivenessStale != 1 || st.HandoffRamps != 1 {
		t.Fatalf("stats=%+v, want one stale entry, one exit, one ramp", st)
	}
	return ep
}

// TestScriptedHostEpisode runs the episode on a scripted host and a stepped
// clock, and checks the window at each of its turns.
func TestScriptedHostEpisode(t *testing.T) {
	h, clock := newScriptHost(), &stepClock{}
	ep := runEpisode(t, h, clock, clock.run)

	want := []int{10 * scriptMSS, 10 * scriptMSS}
	for range 8 {
		want = append(want, 10*scriptMSS)
	}
	want = append(want, 10*scriptMSS, 50000, 25000)
	// Under the fallback: ssthresh is the entry window, so each window's
	// worth of ACKed bytes adds one MSS.
	cwnd, acked := 25000, 0
	for range 40 {
		if acked += scriptMSS; acked >= cwnd {
			acked -= cwnd
			cwnd += scriptMSS
		}
		want = append(want, cwnd)
	}
	if cwnd <= 25000 {
		t.Fatal("the fallback never grew the window")
	}
	ramp := ep.cwnds[len(want) : len(ep.cwnds)-1]
	if !slices.IsSorted(ramp) || ramp[0] <= cwnd || ramp[0] >= 100000 {
		t.Fatalf("handoff from %d to 100000 did not ramp: %v", cwnd, ramp)
	}
	if got := ep.cwnds[:len(want)]; !slices.Equal(got, want) {
		t.Fatalf("cwnd sequence\n got %v\nwant %v", got, want)
	}
	if ep.sent[0] != proto.TypeCreate || ep.sent[len(ep.sent)-1] != proto.TypeClose {
		t.Fatalf("sent %v: want Create first and Close last", ep.sent)
	}
	if !slices.Contains(ep.sent, proto.TypeMeasurement) {
		t.Fatalf("sent %v: no report", ep.sent)
	}
}

// TestScriptedHostMatchesTCPConn runs the same episode with the simulator's
// tcp.Conn as the host and netsim.Sim as the clock, configured as
// TestLivenessEntersFallbackOnStaleControl's flow is but never started, so
// only the datapath moves its window: every window and every message must be
// the scripted host's, step for step.
func TestScriptedHostMatchesTCPConn(t *testing.T) {
	h, clock := newScriptHost(), &stepClock{}
	scripted := runEpisode(t, h, clock, clock.run)

	sim := netsim.New(1)
	conn := tcp.NewConn(sim, 1, nil, nil, tcp.Options{MSS: scriptMSS})
	hosted := runEpisode(t, conn, sim, func(at time.Duration) { sim.Run(at) })

	if !slices.Equal(hosted.cwnds, scripted.cwnds) {
		t.Fatalf("cwnd sequence on tcp.Conn\n%v\non the scripted host\n%v", hosted.cwnds, scripted.cwnds)
	}
	if !slices.Equal(hosted.sent, scripted.sent) {
		t.Fatalf("messages on tcp.Conn\n%v\non the scripted host\n%v", hosted.sent, scripted.sent)
	}
}

// TestNoHostBeforeInit holds the state before Init: the host is a nil
// interface (never a typed nil), nothing is armed, and neither a clock run
// far past the staleness budget nor a Resync touches a host or sends.
func TestNoHostBeforeInit(t *testing.T) {
	clock := &stepClock{}
	sent := 0
	dp := datapath.New(datapath.Config{
		SID:      1,
		Clock:    clock,
		Liveness: datapath.LivenessConfig{StalenessBudget: 200 * time.Millisecond},
		ToAgent:  func(proto.Msg) error { sent++; return nil },
	})
	if dp.HasHost() {
		t.Fatal("a flow has a host before Init")
	}
	if len(clock.timers) != 0 {
		t.Fatalf("%d timers armed before Init", len(clock.timers))
	}
	dp.Resync()
	clock.run(time.Second)
	if sent != 0 || dp.FallbackActive() || dp.Stats() != (datapath.Stats{}) {
		t.Fatalf("before Init: sent %d, fallback %v, stats %+v", sent, dp.FallbackActive(), dp.Stats())
	}

	// Silence is measured from Init, not from New.
	h := newScriptHost()
	dp.Init(h)
	clock.run(clock.now + 150*time.Millisecond)
	if dp.FallbackActive() || h.Cwnd() != 10*scriptMSS {
		t.Fatalf("fallback %v, cwnd %d within the budget after a late Init", dp.FallbackActive(), h.Cwnd())
	}
}
