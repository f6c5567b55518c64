package supervise

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// echoHandler answers heartbeats synchronously, like a healthy agent.
type echoHandler struct {
	echoes int
}

func (e *echoHandler) HandleMessage(m proto.Msg, reply func(proto.Msg) error) {
	if hb, ok := m.(*proto.Heartbeat); ok {
		e.echoes++
		if reply != nil {
			reply(&proto.Heartbeat{SID: hb.SID, Seq: hb.Seq, SentAt: hb.SentAt})
		}
	}
}

func newTestSupervisor(sim *netsim.Sim, h proto.Handler, onFailover func()) *Supervisor {
	return NewSupervisor(Config{
		Clock:         sim,
		Handler:       h,
		Interval:      10 * time.Millisecond,
		LatencyBudget: 100 * time.Millisecond,
		MissBudget:    3,
		OnFailover:    onFailover,
	})
}

func TestSupervisorHealthyStaysHealthy(t *testing.T) {
	sim := netsim.New(1)
	inner := &echoHandler{}
	failovers := 0
	sup := newTestSupervisor(sim, inner, func() { failovers++ })
	sup.Start()
	sim.Run(1 * time.Second)
	sup.Stop()

	if got := sup.State(); got != Healthy {
		t.Fatalf("state = %v, want healthy", got)
	}
	if failovers != 0 {
		t.Fatalf("failovers = %d, want 0", failovers)
	}
	st := sup.Stats()
	if st.ProbesSent == 0 || st.Echoes != st.ProbesSent {
		t.Fatalf("probes=%d echoes=%d, want all echoed", st.ProbesSent, st.Echoes)
	}
	if st.Misses != 0 || st.Suspects != 0 {
		t.Fatalf("misses=%d suspects=%d, want 0", st.Misses, st.Suspects)
	}
}

// A killed agent must blow the miss budget and fire failover within a few
// probe intervals; after the orchestrator restarts the handler and Adopts,
// the supervisor judges the replacement on its own echoes.
func TestSupervisorKillFiresFailover(t *testing.T) {
	sim := netsim.New(1)
	inner := &echoHandler{}
	inj := faults.NewAgentInjector(inner, func(d time.Duration, fn func()) {
		sim.Schedule(d, fn)
	})
	replacement := &echoHandler{}
	var sup *Supervisor
	var failoverAt time.Duration
	failovers := 0
	sup = newTestSupervisor(sim, inj, func() {
		failovers++
		failoverAt = sim.Now()
		inj.Restart(replacement)
		sup.Adopt()
	})
	sup.Start()
	killAt := 500 * time.Millisecond
	sim.Schedule(killAt, inj.Kill)
	sim.Run(2 * time.Second)
	sup.Stop()

	if failovers != 1 {
		t.Fatalf("failovers = %d, want 1", failovers)
	}
	// MissBudget misses at one per interval, plus the interval the probe was
	// in flight: detection within (MissBudget+2) intervals.
	if limit := killAt + 5*10*time.Millisecond; failoverAt > limit {
		t.Fatalf("failover at %v, want ≤ %v", failoverAt, limit)
	}
	if got := sup.State(); got != Healthy {
		t.Fatalf("state after restart = %v, want healthy", got)
	}
	if replacement.echoes == 0 {
		t.Fatal("replacement never probed after failover")
	}
}

// A uniformly slow agent still answers every probe, so the miss budget
// never trips — the latency EWMA must catch it. After it heals, the
// supervisor recovers through the hysteresis gate without a restart.
func TestSupervisorSlowAgentFailsOverViaLatency(t *testing.T) {
	sim := netsim.New(1)
	inner := &echoHandler{}
	inj := faults.NewAgentInjector(inner, func(d time.Duration, fn func()) {
		sim.Schedule(d, fn)
	})
	failovers := 0
	sup := NewSupervisor(Config{
		Clock:         sim,
		Handler:       inj,
		Interval:      50 * time.Millisecond,
		LatencyBudget: 100 * time.Millisecond,
		MissBudget:    5, // echoes arrive within 3 intervals: misses never trip
		OnFailover:    func() { failovers++ },
	})
	sup.Start()
	sim.Schedule(500*time.Millisecond, func() { inj.SlowDown(150 * time.Millisecond) })
	sim.Schedule(2*time.Second, func() { inj.SlowDown(0) })
	sim.Run(4 * time.Second)
	sup.Stop()

	if failovers != 1 {
		t.Fatalf("failovers = %d, want exactly 1 (cooldown + hysteresis)", failovers)
	}
	st := sup.Stats()
	if st.Echoes == 0 {
		t.Fatal("no echoes: slow agent should still answer")
	}
	if got := sup.State(); got != Healthy {
		t.Fatalf("state after heal = %v (ewma %v), want healthy", got, sup.Latency())
	}
	if st.Recoveries == 0 {
		t.Fatal("expected a recovery after the slowdown lifted")
	}
}

// Latency in the band between the suspect and failure thresholds must park
// the supervisor in Suspect — no failover — and recovery requires clearing
// the stricter exit threshold.
func TestSupervisorSuspectHysteresis(t *testing.T) {
	sim := netsim.New(1)
	inner := &echoHandler{}
	inj := faults.NewAgentInjector(inner, func(d time.Duration, fn func()) {
		sim.Schedule(d, fn)
	})
	failovers := 0
	sup := NewSupervisor(Config{
		Clock:         sim,
		Handler:       inj,
		Interval:      50 * time.Millisecond,
		LatencyBudget: 100 * time.Millisecond,
		MissBudget:    5,
		OnFailover:    func() { failovers++ },
	})
	sawSuspect := false
	sim.Schedule(500*time.Millisecond, func() { inj.SlowDown(60 * time.Millisecond) })
	sim.Schedule(1500*time.Millisecond, func() {
		sawSuspect = sup.State() == Suspect
		inj.SlowDown(0)
	})
	sup.Start()
	sim.Run(3 * time.Second)
	sup.Stop()

	if !sawSuspect {
		t.Fatal("60ms latency against a 100ms budget should read as suspect")
	}
	if failovers != 0 {
		t.Fatalf("failovers = %d, want 0: suspect must not trigger failover", failovers)
	}
	if got := sup.State(); got != Healthy {
		t.Fatalf("state after heal = %v, want healthy", got)
	}
}

// buildPrimary returns an agent with two live flows (reno and cubic).
func buildPrimary(t *testing.T) *core.Agent {
	t.Helper()
	agent, err := core.NewAgent(core.AgentConfig{
		Registry:   algorithms.NewRegistry(),
		DefaultAlg: "cubic",
	})
	if err != nil {
		t.Fatal(err)
	}
	reply := func(proto.Msg) error { return nil }
	agent.HandleMessage(&proto.Create{SID: 1, Seq: 1, MSS: 1460, InitCwnd: 14600,
		SrcAddr: "10.0.0.1:1", DstAddr: "10.0.0.2:2", Alg: "reno"}, reply)
	agent.HandleMessage(&proto.Create{SID: 2, Seq: 1, MSS: 1460, InitCwnd: 14600,
		SrcAddr: "10.0.0.1:3", DstAddr: "10.0.0.2:4", Alg: "cubic"}, reply)
	return agent
}

func applySink(sb *Standby) func(*proto.Snapshot) error {
	return func(snap *proto.Snapshot) error {
		sb.Apply(snap)
		return nil
	}
}

// checkRestored promotes sb the way every deployment does — runtime.New, then
// RestoreInto — with the shard the caller runs and with shard goroutines, and
// checks the promoted runtime against the primary: same flows, algorithms,
// programs and exported registers, with control sequences skipped ahead so
// post-snapshot primary decisions cannot shadow standby ones.
func checkRestored(t *testing.T, sb *Standby, primary *core.Agent) {
	t.Helper()
	prim := map[uint32]*proto.Snapshot{}
	if _, err := primary.SnapshotInto(true, func(s *proto.Snapshot) error {
		prim[s.SID] = proto.Clone(s).(*proto.Snapshot)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		rt, err := runtime.New(runtime.Config{Shards: shards, Agent: core.AgentConfig{
			Registry:   algorithms.NewRegistry(),
			DefaultAlg: "cubic",
		}})
		if err != nil {
			t.Fatal(err)
		}
		sb.RestoreInto(rt)
		if st := rt.Stats(); rt.FlowCount() != len(prim) || st.Agent.Restores != len(prim) || sb.Stats().RestoreErrors != 0 {
			t.Fatalf("shards=%d: promoted runtime has %d flows, %d restores, %d restore errors; want %d, %d, 0",
				shards, rt.FlowCount(), st.Agent.Restores, sb.Stats().RestoreErrors, len(prim), len(prim))
		}
		_, err = rt.SnapshotInto(true, func(s *proto.Snapshot) error {
			p, ok := prim[s.SID]
			if !ok {
				t.Fatalf("shards=%d: promoted flow %d missing on primary", shards, s.SID)
			}
			if s.Alg != p.Alg || s.MSS != p.MSS || s.SrcAddr != p.SrcAddr {
				t.Fatalf("shards=%d: flow %d identity mismatch: %+v vs %+v", shards, s.SID, s, p)
			}
			if string(s.Prog) != string(p.Prog) {
				t.Fatalf("shards=%d: flow %d program diverged after restore", shards, s.SID)
			}
			if len(s.State) != len(p.State) {
				t.Fatalf("shards=%d: flow %d state length %d vs %d", shards, s.SID, len(s.State), len(p.State))
			}
			for i := range s.State {
				if s.State[i] != p.State[i] {
					t.Fatalf("shards=%d: flow %d state[%d] = %v, want %v", shards, s.SID, i, s.State[i], p.State[i])
				}
			}
			if !proto.SeqNewer(s.CtrlSeq, p.CtrlSeq) {
				t.Fatalf("shards=%d: flow %d restored ctrlSeq %d not ahead of primary's %d",
					shards, s.SID, s.CtrlSeq, p.CtrlSeq)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.Close()
	}
}

func TestStandbyApplyAndRestore(t *testing.T) {
	primary := buildPrimary(t)
	sb := NewStandby()
	n, err := primary.SnapshotInto(true, applySink(sb))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || sb.FlowCount() != 2 {
		t.Fatalf("snapshots=%d standby flows=%d, want 2/2", n, sb.FlowCount())
	}
	checkRestored(t, sb, primary)
}

func TestStandbyTombstoneRemoves(t *testing.T) {
	primary := buildPrimary(t)
	sb := NewStandby()
	if _, err := primary.SnapshotInto(true, applySink(sb)); err != nil {
		t.Fatal(err)
	}
	primary.HandleMessage(&proto.Close{SID: 1}, nil)
	n, err := primary.SnapshotInto(false, applySink(sb))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("incremental pass emitted %d messages, want 1 tombstone", n)
	}
	if got := sb.FlowCount(); got != 1 {
		t.Fatalf("standby flows = %d after tombstone, want 1", got)
	}
	if got := sb.Stats().Removed; got != 1 {
		t.Fatalf("removed = %d, want 1", got)
	}
}

// Replication over a real ipc.Transport: frames stream through a ChanPair
// and the serve loop agents run (runtime.ServeTransport, the standby as its
// handler), and the result promotes identically to in-process Apply. What is
// not a snapshot, whether it decodes or not, is counted and changes nothing.
func TestStandbyServeTransport(t *testing.T) {
	primary := buildPrimary(t)
	a, b := ipc.ChanPair(64)
	n, err := Replicate(primary, true, a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replicated %d frames, want 2", n)
	}
	stray, err := proto.Marshal(&proto.Close{SID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{{0xFF, 0xFF}, stray} {
		if err := a.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	sb := NewStandby()
	if err := runtime.ServeTransport(sb, b); err != ipc.ErrClosed {
		t.Fatalf("ServeTransport error = %v, want ErrClosed after drain", err)
	}
	if got := sb.FlowCount(); got != 2 {
		t.Fatalf("standby flows = %d, want 2", got)
	}
	if got := sb.Stats().Unexpected; got != 2 {
		t.Fatalf("unexpected frames = %d, want 2 (one undecodable, one not a snapshot)", got)
	}
	checkRestored(t, sb, primary)
}
