// Package supervise is the high-availability layer around the CCP agent: a
// warm standby that consumes flow-state snapshot deltas and can be promoted
// to a full agent, and a supervisor that health-checks the running agent
// with heartbeat probes and drives failover when it dies, wedges, or slows
// past its latency budget.
//
// The paper's premise is that congestion control logic belongs off the
// datapath; the cost is that the agent process becomes a failure domain
// shared by every flow. PR 6 gave each datapath a local fail-safe (fallback
// congestion control when the agent goes quiet). This package restores the
// *off*-datapath half: the supervisor notices an unhealthy agent within a
// few probe intervals and swaps in a standby whose per-flow state is at
// most one snapshot interval stale, so flows resume fresh agent decisions
// within a handful of RTTs instead of riding the in-datapath fallback.
//
// Everything here runs on a netsim.Clock with no goroutines and no maps
// feeding ordered sinks, so supervised simulations stay bit-identical per
// seed (the ccp-lint simdeterminism pass covers this package).
package supervise

import (
	"sort"
	"sync"
	"time"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
)

// State is the supervisor's judgment of the agent.
type State int

// Health states, in escalation order.
const (
	// Healthy: echoes arrive within budget.
	Healthy State = iota
	// Suspect: latency is drifting up or a probe is outstanding; no action
	// yet, but recovery now requires clearing the stricter exit threshold
	// (hysteresis, so a borderline agent cannot flap).
	Suspect
	// Failed: the miss budget or the latency budget is blown; OnFailover
	// has fired (subject to cooldown).
	Failed
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	}
	return "failed"
}

// Config configures a Supervisor.
type Config struct {
	// Clock schedules probe ticks (the simulator clock in experiments).
	// Required.
	Clock netsim.Clock
	// Handler receives the probes. Required. In a supervised deployment this
	// is the faults.AgentInjector wrapping the live agent, so probes
	// experience the same pauses, delays, and drops the datapath traffic does.
	Handler proto.Handler
	// Interval is the probe period (default 10ms).
	Interval time.Duration
	// Alpha is the EWMA gain on latency samples (default 0.3).
	Alpha float64
	// LatencyBudget: when the latency EWMA exceeds this, the agent is
	// Failed even though it still answers — a uniformly slow agent is as
	// useless to a datapath as a dead one (its decisions arrive stale).
	// Default 100ms.
	LatencyBudget time.Duration
	// MissBudget is the number of consecutive probe ticks with the oldest
	// probe still unanswered before the agent is Failed (default 3).
	MissBudget int
	// SuspectFraction: EWMA above SuspectFraction×LatencyBudget moves a
	// Healthy agent to Suspect (default 0.5).
	SuspectFraction float64
	// RecoverFraction: a Suspect or Failed agent returns to Healthy only
	// once every probe is answered and the EWMA is below
	// RecoverFraction×LatencyBudget (default 0.25). The gap between the
	// two fractions is the hysteresis band.
	RecoverFraction float64
	// FailoverCooldown is the minimum spacing between OnFailover firings
	// (default 10×Interval), so a flapping environment cannot thrash
	// promotions.
	FailoverCooldown time.Duration
	// OnFailover runs when the agent transitions to Failed (outside
	// cooldown). Typically: promote the standby and point the injector at
	// it. Nil means monitor-only.
	OnFailover func()
}

// Stats counts supervisor activity.
type Stats struct {
	ProbesSent int
	Echoes     int
	// Misses counts probe ticks that found the oldest probe unanswered.
	Misses    int
	Suspects  int
	Failovers int
	// Recoveries counts transitions back to Healthy (via echo quality, not
	// Adopt).
	Recoveries int
}

// Supervisor health-checks an agent by sending proto.Heartbeat probes
// through its message path and scoring the echoes: an EWMA of
// request→response latency catches the slow-agent failure mode, and a
// consecutive-miss counter catches the dead/paused one. Crossing either
// budget fires OnFailover.
//
// Not safe for concurrent use: ticks, echoes, and Adopt must come from one
// scheduling domain (the simulator event loop).
type Supervisor struct {
	cfg   Config
	timer netsim.Timer

	state   State
	ewma    float64 // seconds
	samples int
	misses  int
	seq     uint32
	// Oldest unanswered probe; age folds into the EWMA each tick so a
	// silent agent's score climbs even though no echo ever arrives.
	unechoedSeq   uint32
	unechoedAt    time.Duration
	haveUnechoed  bool
	cooldownUntil time.Duration
	haveCooldown  bool
	scratch       proto.Heartbeat
	stats         Stats
}

// NewSupervisor validates cfg, applies defaults, and returns a stopped
// supervisor; call Start to begin probing. Panics on a missing Clock or
// Handler (deployments construct these statically).
func NewSupervisor(cfg Config) *Supervisor {
	if cfg.Clock == nil {
		panic("supervise: Config.Clock is required")
	}
	if cfg.Handler == nil {
		panic("supervise: Config.Handler is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.3
	}
	if cfg.LatencyBudget <= 0 {
		cfg.LatencyBudget = 100 * time.Millisecond
	}
	if cfg.MissBudget <= 0 {
		cfg.MissBudget = 3
	}
	if cfg.SuspectFraction <= 0 || cfg.SuspectFraction > 1 {
		cfg.SuspectFraction = 0.5
	}
	if cfg.RecoverFraction <= 0 || cfg.RecoverFraction >= cfg.SuspectFraction {
		cfg.RecoverFraction = cfg.SuspectFraction / 2
	}
	if cfg.FailoverCooldown <= 0 {
		cfg.FailoverCooldown = 10 * cfg.Interval
	}
	return &Supervisor{cfg: cfg}
}

// Start arms the probe loop; the first probe fires one interval from now.
func (s *Supervisor) Start() {
	if s.timer != nil {
		return
	}
	s.timer = s.cfg.Clock.AfterFunc(s.cfg.Interval, s.tick)
}

// Stop cancels the probe loop.
func (s *Supervisor) Stop() {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

// Stats returns a snapshot of the activity counters.
func (s *Supervisor) Stats() Stats { return s.stats }

// Adopt resets the health state after the orchestrator has swapped a fresh
// agent behind the handler (promotion or restart): score, misses, and
// outstanding probes all clear, so the new agent is judged on its own
// echoes rather than its predecessor's corpse. The failover cooldown is
// preserved — it spaces promotions, not probes.
func (s *Supervisor) Adopt() {
	s.state = Healthy
	s.ewma = 0
	s.samples = 0
	s.misses = 0
	s.haveUnechoed = false
}

// tick sends one probe and scores the silence since the last one.
func (s *Supervisor) tick() {
	s.timer = nil
	now := s.cfg.Clock.Now()
	if s.haveUnechoed {
		// The oldest probe is still unanswered: fold its age in as a
		// latency sample (clamped, so one long outage does not poison the
		// EWMA for minutes after recovery) and count the miss.
		s.misses++
		s.stats.Misses++
		s.foldSample((now - s.unechoedAt).Seconds())
	}
	s.seq++
	if s.seq == 0 {
		s.seq = 1
	}
	if !s.haveUnechoed {
		s.unechoedSeq = s.seq
		s.unechoedAt = now
		s.haveUnechoed = true
	}
	s.scratch = proto.Heartbeat{Seq: s.seq, SentAt: now.Seconds()}
	s.stats.ProbesSent++
	s.cfg.Handler.HandleMessage(&s.scratch, s.echo)
	s.evaluate(s.cfg.Clock.Now())
	s.timer = s.cfg.Clock.AfterFunc(s.cfg.Interval, s.tick)
}

// echo scores one heartbeat reply. It is the reply func handed to the
// handler, so with a healthy synchronous agent it runs inside tick's
// HandleMessage call; with a slow or paused one it runs when the delayed
// or replayed delivery fires.
func (s *Supervisor) echo(m proto.Msg) error {
	hb, ok := m.(*proto.Heartbeat)
	if !ok {
		return nil // probes carry no flow, so nothing else should arrive
	}
	now := s.cfg.Clock.Now()
	s.stats.Echoes++
	s.misses = 0
	lat := now.Seconds() - hb.SentAt
	s.foldSample(lat)
	if s.haveUnechoed && (hb.Seq == s.unechoedSeq || proto.SeqNewer(hb.Seq, s.unechoedSeq)) {
		s.haveUnechoed = false
	}
	s.evaluate(now)
	return nil
}

// foldSample merges one latency observation (seconds) into the EWMA,
// clamped at twice the budget.
func (s *Supervisor) foldSample(lat float64) {
	if lat < 0 {
		lat = 0
	}
	if max := 2 * s.cfg.LatencyBudget.Seconds(); lat > max {
		lat = max
	}
	if s.samples == 0 {
		s.ewma = lat
	} else {
		s.ewma = s.cfg.Alpha*lat + (1-s.cfg.Alpha)*s.ewma
	}
	s.samples++
}

// evaluate runs the Healthy/Suspect/Failed state machine.
func (s *Supervisor) evaluate(now time.Duration) {
	budget := s.cfg.LatencyBudget.Seconds()
	blown := s.misses >= s.cfg.MissBudget || (s.samples > 0 && s.ewma > budget)
	switch {
	case blown:
		if s.state != Failed {
			s.state = Failed
			if s.cfg.OnFailover != nil && (!s.haveCooldown || now >= s.cooldownUntil) {
				s.stats.Failovers++
				s.cooldownUntil = now + s.cfg.FailoverCooldown
				s.haveCooldown = true
				s.cfg.OnFailover()
			}
		}
	case s.state == Healthy:
		if s.misses > 0 || (s.samples > 0 && s.ewma > s.cfg.SuspectFraction*budget) {
			s.state = Suspect
			s.stats.Suspects++
		}
	default: // Suspect or Failed: recovery needs the stricter exit gate
		if s.misses == 0 && !s.haveUnechoed && s.samples > 0 &&
			s.ewma < s.cfg.RecoverFraction*budget {
			s.state = Healthy
			s.stats.Recoveries++
		}
	}
}

// StandbyStats counts standby activity.
type StandbyStats struct {
	// Applied counts live-flow snapshots stored (updates included);
	// Removed counts tombstone deletions.
	Applied int
	Removed int
	// RestoreErrors counts snapshots RestoreInto could not restore (the flow
	// is skipped; the rest of the table still promotes).
	RestoreErrors int
	// Unexpected counts non-snapshot messages and undecodable frames on the
	// replication stream.
	Unexpected int
}

// Standby is the warm half of the HA pair: a snapshot store that tracks the
// primary agent's per-flow state and can be restored into a live agent
// (promotion is runtime.New plus RestoreInto).
// Feed it with Apply (in-process replication, e.g. the harness snapshot
// pump) or, as a proto.Handler, from a serve loop (wire replication).
//
// Standby methods are mutex-guarded: a transport-fed standby receives from
// a socket goroutine while promotion happens elsewhere.
type Standby struct {
	mu    sync.Mutex
	snaps map[uint32]*proto.Snapshot
	stats StandbyStats
}

// NewStandby returns an empty standby.
func NewStandby() *Standby {
	return &Standby{snaps: make(map[uint32]*proto.Snapshot)}
}

// Apply folds one snapshot into the store: a tombstone deletes the flow,
// anything else replaces it. snap is borrowed for the duration of the call
// (it is cloned before retention), matching the SnapshotInto sink contract.
func (s *Standby) Apply(snap *proto.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Closed {
		if _, ok := s.snaps[snap.SID]; ok {
			delete(s.snaps, snap.SID)
			s.stats.Removed++
		}
		return
	}
	s.snaps[snap.SID] = proto.Clone(snap).(*proto.Snapshot)
	s.stats.Applied++
}

// FlowCount returns the number of flows currently tracked.
func (s *Standby) FlowCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snaps)
}

// Stats returns a snapshot of the activity counters.
func (s *Standby) Stats() StandbyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Restorer is what a standby's store is restored into: a runtime.Runtime,
// which routes each flow to the shard that owns it.
type Restorer interface {
	RestoreFlow(snap *proto.Snapshot) error
}

// RestoreInto restores every tracked flow into dst, in ascending SID order so
// promotion is deterministic. A snapshot that fails to restore (bad program
// bytes) is skipped and counted; one poisoned flow must not block failover
// for the rest. The store is left intact — the caller decides whether this
// standby keeps replicating or retires.
func (s *Standby) RestoreInto(dst Restorer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sids := make([]uint32, len(s.snaps))
	i := 0
	for sid := range s.snaps {
		sids[i] = sid
		i++
	}
	sort.Slice(sids, func(a, b int) bool { return sids[a] < sids[b] })
	for _, sid := range sids {
		if err := dst.RestoreFlow(s.snaps[sid]); err != nil {
			s.stats.RestoreErrors++
		}
	}
}

// HandleMessage feeds one replication message: a snapshot applies; anything
// else counts as unexpected. The reply func is unused — replication is
// one-way. A standby is a proto.Handler so that the serve loop
// agents run (runtime.ServeTransport) consumes a replication stream over an
// ipc.Transport, which is what ccp-agent -standby does, and so that it can
// sit directly behind a bridge or injector in tests.
func (s *Standby) HandleMessage(m proto.Msg, _ func(proto.Msg) error) {
	switch v := m.(type) {
	case *proto.Snapshot:
		s.Apply(v)
	default:
		s.unexpected()
	}
}

// BadFrame counts a replication frame the serve loop could not decode.
func (s *Standby) BadFrame(error) { s.unexpected() }

func (s *Standby) unexpected() {
	s.mu.Lock()
	s.stats.Unexpected++
	s.mu.Unlock()
}

// SnapshotSource is a live agent whose flow state can be replicated: a
// *core.Agent or a runtime.Runtime (see core.Agent.SnapshotInto).
type SnapshotSource interface {
	SnapshotInto(full bool, sink func(*proto.Snapshot) error) (int, error)
}

// Replicate streams one snapshot pass from a live agent onto t, marshalling
// each snapshot as its own frame. full=true replays the entire flow table
// (what a freshly attached standby needs once); full=false sends the
// incremental delta. Returns the number of frames sent.
func Replicate(a SnapshotSource, full bool, t ipc.Transport) (int, error) {
	return a.SnapshotInto(full, func(snap *proto.Snapshot) error {
		f, err := proto.MarshalFrame(snap)
		if err != nil {
			return err
		}
		err = t.Send(f.B)
		f.Release()
		return err
	})
}
