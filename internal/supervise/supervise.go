// Package supervise is the high-availability layer around the CCP agent: a
// warm standby that consumes flow-state snapshot deltas, as the wire frames
// Replicate sends in and out of process alike, and can be promoted to a full
// agent, and a supervisor that health-checks the running agent
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
// Everything here runs on a cc.Clock, the simulator's in experiments, so
// the package links no simulator and neither does ccp-agent, which links it
// for the standby. It starts no goroutines and feeds no ordered sink from a
// map, so supervised simulations stay bit-identical per seed (the ccp-lint
// simdeterminism pass covers this package).
package supervise

import (
	"bytes"
	"errors"
	"sort"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
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
	Clock cc.Clock
	// Handler receives the probes, as frames it only borrows. Required. In a
	// supervised deployment this is the HandleFrame of the
	// faults.AgentInjector wrapping the live agent, so probes experience the
	// same pauses, delays, and drops the datapath traffic does.
	Handler func(frame []byte, reply func(proto.Msg) error) error
	// Interval is the probe period (default 10ms).
	Interval time.Duration
	// LatencyBudget: when the latency EWMA exceeds this, the agent is
	// Failed even though it still answers — a uniformly slow agent is as
	// useless to a datapath as a dead one (its decisions arrive stale).
	// Default 100ms.
	LatencyBudget time.Duration
	// MissBudget is the number of consecutive probe ticks with the oldest
	// probe still unanswered before the agent is Failed (default 3).
	MissBudget int
	// OnFailover runs when the agent transitions to Failed, at most once
	// per cooldownIntervals×Interval. Typically: promote the standby and
	// point the injector at it. Nil means monitor-only.
	OnFailover func()
}

const (
	// An EWMA above suspectFraction×LatencyBudget moves a Healthy agent to
	// Suspect. A Suspect or Failed agent returns to Healthy only once every
	// probe is answered and the EWMA is below recoverFraction×LatencyBudget;
	// the gap between the two is the hysteresis band.
	suspectFraction = 0.5
	recoverFraction = 0.25
	// cooldownIntervals probe intervals is the minimum spacing between
	// OnFailover firings, so a flapping environment cannot thrash
	// promotions.
	cooldownIntervals = 10
)

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
// through its message path and scoring the echoes: the EWMA of
// request→response latency a proto.ProbeScore keeps (with a limit of twice
// the latency budget) catches the slow-agent failure mode, and a
// consecutive-miss counter catches the dead/paused one. Crossing either
// budget fires OnFailover.
//
// Not safe for concurrent use: ticks, echoes, and Adopt must come from one
// scheduling domain (the simulator event loop).
type Supervisor struct {
	cfg   Config
	timer cc.Timer

	state         State
	score         proto.ProbeScore
	misses        int
	cooldownUntil time.Duration
	haveCooldown  bool
	probe         proto.Heartbeat
	frame         []byte // probe, marshalled; reused by every tick
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
	if cfg.LatencyBudget <= 0 {
		cfg.LatencyBudget = 100 * time.Millisecond
	}
	if cfg.MissBudget <= 0 {
		cfg.MissBudget = 3
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
// echoes rather than its predecessor's corpse. Probe numbering continues,
// and the failover cooldown is preserved — it spaces promotions, not probes.
func (s *Supervisor) Adopt() {
	s.state = Healthy
	s.score.Reset()
	s.misses = 0
}

// limit clamps the score's samples at twice the budget, so one long outage
// does not poison the EWMA for minutes after recovery.
func (s *Supervisor) limit() float64 { return 2 * s.cfg.LatencyBudget.Seconds() }

// tick sends one probe and scores the silence since the last one.
func (s *Supervisor) tick() {
	s.timer = nil
	now := s.cfg.Clock.Now()
	seq, missed := s.score.Probe(now, s.limit())
	if missed {
		// The oldest probe was still unanswered: the score has folded in its
		// age; count the miss.
		s.misses++
		s.stats.Misses++
	}
	s.probe = proto.Heartbeat{Seq: seq, SentAt: now.Seconds()}
	s.frame, _ = proto.AppendMarshal(s.frame[:0], &s.probe) // a Heartbeat always marshals
	s.stats.ProbesSent++
	s.cfg.Handler(s.frame, s.echo)
	s.evaluate(s.cfg.Clock.Now())
	s.timer = s.cfg.Clock.AfterFunc(s.cfg.Interval, s.tick)
}

// echo scores one heartbeat reply. It is the reply func handed to the
// handler, so with a healthy synchronous agent it runs inside tick's
// Handler call; with a slow or paused one it runs when the delayed
// or replayed delivery fires.
func (s *Supervisor) echo(m proto.Msg) error {
	hb, ok := m.(*proto.Heartbeat)
	if !ok {
		return nil // probes carry no flow, so nothing else should arrive
	}
	now := s.cfg.Clock.Now()
	s.stats.Echoes++
	s.misses = 0
	s.score.Echo(hb.Seq, now.Seconds()-hb.SentAt, s.limit())
	s.evaluate(now)
	return nil
}

// evaluate runs the Healthy/Suspect/Failed state machine.
func (s *Supervisor) evaluate(now time.Duration) {
	budget := s.cfg.LatencyBudget.Seconds()
	lat, scored := s.score.Score()
	blown := s.misses >= s.cfg.MissBudget || (scored && lat > budget)
	switch {
	case blown:
		if s.state != Failed {
			s.state = Failed
			if s.cfg.OnFailover != nil && (!s.haveCooldown || now >= s.cooldownUntil) {
				s.stats.Failovers++
				s.cooldownUntil = now + cooldownIntervals*s.cfg.Interval
				s.haveCooldown = true
				s.cfg.OnFailover()
			}
		}
	case s.state == Healthy:
		if s.misses > 0 || (scored && lat > suspectFraction*budget) {
			s.state = Suspect
			s.stats.Suspects++
		}
	default: // Suspect or Failed: recovery needs the stricter exit gate
		if s.misses == 0 && !s.score.Outstanding() && scored &&
			lat < recoverFraction*budget {
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
	// Unexpected counts frames on the replication stream that do not decode
	// or are not snapshots.
	Unexpected int
}

// Standby is the warm half of the HA pair: a store of the primary agent's
// per-flow snapshots, kept as the frames they arrived in, that can be
// restored into a live agent (promotion is runtime.New plus RestoreInto).
// Apply feeds it: Replicate's send in the simulator's snapshot pump, and
// the handler of the serve loop a replication stream arrives on in
// ccp-agent -standby, so in-process and two-process replication run the
// same wire codec. Like core.Agent it has one owner and no lock: ccp-agent
// -standby feeds and promotes it from one goroutine, the simulator from its
// event loop.
type Standby struct {
	snaps map[uint32][]byte
	dec   proto.Decoder
	stats StandbyStats
}

// NewStandby returns an empty standby.
func NewStandby() *Standby {
	return &Standby{snaps: make(map[uint32][]byte)}
}

var errNotSnapshot = errors.New("supervise: replication frame is not a snapshot")

// Apply folds one replication frame, which it only borrows, into the store:
// it is decoded once to be checked, a tombstone deletes its flow, and any
// other snapshot's bytes are copied in, replacing the flow's. A frame that
// does not decode or is not a snapshot is counted Unexpected and is the
// error.
func (s *Standby) Apply(frame []byte) error {
	m, err := s.dec.Unmarshal(frame)
	if err == nil && m.Type() != proto.TypeSnapshot {
		err = errNotSnapshot
	}
	if err != nil {
		s.stats.Unexpected++
		return err
	}
	snap := m.(*proto.Snapshot)
	if snap.Closed {
		if _, ok := s.snaps[snap.SID]; ok {
			delete(s.snaps, snap.SID)
			s.stats.Removed++
		}
		return nil
	}
	s.snaps[snap.SID] = bytes.Clone(frame)
	s.stats.Applied++
	return nil
}

// FlowCount returns the number of flows currently tracked.
func (s *Standby) FlowCount() int { return len(s.snaps) }

// Stats returns a snapshot of the activity counters.
func (s *Standby) Stats() StandbyStats { return s.stats }

// Restorer is what a standby's store is restored into: a runtime.Runtime,
// which routes each flow to the shard that owns it.
type Restorer interface {
	RestoreFlow(snap *proto.Snapshot) error
}

// RestoreInto decodes every tracked flow's frame again and restores it into
// dst, in ascending SID order so promotion is deterministic. A snapshot that
// fails to restore (bad program bytes) is skipped and counted; one poisoned
// flow must not block failover for the rest. The store is left intact — the
// caller decides whether this standby keeps replicating or retires.
func (s *Standby) RestoreInto(dst Restorer) {
	sids := make([]uint32, 0, len(s.snaps))
	for sid := range s.snaps {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(a, b int) bool { return sids[a] < sids[b] })
	for _, sid := range sids {
		m, err := s.dec.Unmarshal(s.snaps[sid]) // decoded once already by Apply
		if err == nil {
			err = dst.RestoreFlow(m.(*proto.Snapshot))
		}
		if err != nil {
			s.stats.RestoreErrors++
		}
	}
}

// SnapshotSource is a live agent whose flow state can be replicated: a
// *core.Agent or a runtime.Runtime (see core.Agent.SnapshotInto).
type SnapshotSource interface {
	SnapshotInto(full bool, sink func(*proto.Snapshot) error) (int, error)
}

// Replicate streams one snapshot pass from a live agent to send, marshalling
// each snapshot as its own frame, which send only borrows. It is the one
// replication path: ccp-agent sends onto the standby's transport, and the
// simulator's snapshot pump hands each frame to Standby.Apply. full=true
// replays the entire flow table (what a freshly attached standby needs
// once); full=false sends the incremental delta. Returns the number of
// frames sent.
func Replicate(src SnapshotSource, full bool, send func(frame []byte) error) (int, error) {
	return src.SnapshotInto(full, func(snap *proto.Snapshot) error {
		f, err := proto.MarshalFrame(snap)
		if err != nil {
			return err
		}
		err = send(f.B)
		f.Release()
		return err
	})
}
