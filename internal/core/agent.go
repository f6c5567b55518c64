package core

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// AgentConfig configures an Agent.
type AgentConfig struct {
	// Registry supplies algorithm factories. Required.
	Registry *Registry
	// DefaultAlg is used when a flow does not request an algorithm. It must
	// be registered. Required.
	DefaultAlg string
	// Policy selects per-flow clamps; nil means no policy.
	Policy PolicyFunc
	// Logf, if set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// AgentStats counts the agent's activity. Only the agent's owner writes a
// counter, with an atomic add, so any goroutine may read them (Agent.Stats).
type AgentStats struct {
	FlowsCreated   int64
	FlowsClosed    int64
	Measurements   int64
	Vectors        int64
	Urgents        int64
	UnknownFlowMsg int64
	UnknownAlgReq  int64
	Errors         int64
	// DupCreates counts duplicated Create deliveries for a flow the agent
	// already tracks (same announcement replayed by a faulty channel).
	DupCreates int64
	// DupUrgents counts urgent events discarded because their sequence
	// number had already been seen — a duplicated or reordered delivery.
	DupUrgents int64
	// ResyncAdopts counts datapath resync Creates absorbed by a restored
	// flow: after failover the datapath's CC state is intact, so the
	// promoted agent adopts the channel instead of cold-rebuilding the flow.
	ResyncAdopts int64
	// StaleReports counts reports discarded because a newer report had
	// already been processed.
	StaleReports int64
	// Restores counts flows rebuilt from snapshots (standby promotion).
	Restores int64
	// Heartbeats counts supervision probes echoed.
	Heartbeats int64
	// InstallErrs counts datapath refusals of installed programs (verifier
	// rejections, malformed encodings, stale references). Each names the
	// program the refusing flow kept running, which the agent's flow takes.
	InstallErrs int64
	// InstallsByRef counts the Installs sent as a reference to the measure
	// half of an earlier one plus a control half (Flow.Install). RefResends
	// counts the programs sent again, whole, because the datapath refused a
	// reference at another epoch than it named (Flow.noteInstallErr); each
	// answers one of InstallErrs.
	InstallsByRef int64
	RefResends    int64
	// UnknownEpochs counts reports dropped because their flow could not name
	// the program that folded them (Agent.report).
	UnknownEpochs int64
}

// Agent is the user-space congestion control plane: it multiplexes flows
// from one or more datapaths onto per-flow algorithm instances and relays
// their decisions back. Dispatch is a synchronous state transition, so the
// agent runs identically on the simulator event loop (deterministic) and
// behind a transport goroutine (internal/runtime's serve loops). It takes
// decoded messages, answers with encoded ones, and knows nothing of
// transports.
// An Agent has one owner and no lock, like datapath.CCP: only Stats and
// FlowCount may be called from another goroutine.
type Agent struct {
	cfg AgentConfig

	flows map[uint32]*flowState
	live  atomic.Int64 // len(flows), for FlowCount
	// shared is the block every flow of this agent points at, the agent's
	// counters included.
	shared flowShared

	// HA snapshot state (see snapshot.go). snapshotting turns on tombstone
	// recording the first time SnapshotInto runs, so an agent nobody
	// replicates never accumulates closed-flow history. The scratch fields
	// make the steady-state snapshot pass allocation-free.
	snapshotting bool
	closedSIDs   []uint32
	snapScratch  proto.Snapshot
	sidScratch   []uint32
}

type flowState struct {
	flow *Flow
	alg  Alg
	// createSeq is the Seq carried by the Create that made this state, used
	// to recognize duplicated deliveries of the same announcement.
	createSeq uint32
	// lastReportSeq / lastUrgentSeq are the newest datapath-stamped sequence
	// numbers processed, for discarding duplicated or reordered deliveries.
	// Zero-Seq messages (unsequenced) bypass the checks.
	lastReportSeq uint32
	lastUrgentSeq uint32
	// samples is vector-mode scratch, reused across reports (OnMeasurement
	// must not retain it; see Measurement).
	samples []PktSample
	// Snapshot dirty tracking: snapped marks a state exported at least once,
	// dirty one that admitted a report or an urgent since, so an idle flow is
	// skipped by incremental snapshots.
	snapped, dirty bool
	// restored marks a flow rebuilt from a snapshot whose datapath has not
	// spoken to this agent yet; the first resync Create is adopted rather
	// than treated as a datapath restart (see handleCreate).
	restored bool
}

// NewAgent validates cfg and returns an agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("core: AgentConfig.Registry is required")
	}
	if _, ok := cfg.Registry.New(cfg.DefaultAlg); !ok {
		return nil, fmt.Errorf("core: default algorithm %q not registered", cfg.DefaultAlg)
	}
	return &Agent{
		cfg:   cfg,
		flows: make(map[uint32]*flowState),
	}, nil
}

// Stats returns a snapshot of the agent counters, without waiting.
func (a *Agent) Stats() AgentStats {
	var s AgentStats
	s.Add(&a.shared.stats)
	return s
}

// Add adds o's counters to s, loading each atomically (o may be a live agent's).
func (s *AgentStats) Add(o *AgentStats) {
	d, x := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i := range d.NumField() {
		d.Field(i).SetInt(d.Field(i).Int() + atomic.LoadInt64(x.Field(i).Addr().Interface().(*int64)))
	}
}

// FlowCount returns the number of live flows, without waiting.
func (a *Agent) FlowCount() int { return int(a.live.Load()) }

// HandleMessage processes one datapath→agent message. reply transmits the
// encoded agent→datapath messages for the flow's datapath (it is captured by
// the flow created on Create, so each datapath keeps its own channel).
//
// Ownership is one rule in both directions: what crosses is lent for the
// duration of one call. m is borrowed for this one: callers decode into
// scratch they reuse once it returns (a runtime shard, its decoder). Each
// frame handed to reply is borrowed for that call: the agent marshals its
// next decision over it, so a reply that keeps the bytes copies them.
func (a *Agent) HandleMessage(m proto.Msg, reply func(frame []byte) error) {
	switch v := m.(type) {
	case *proto.Create:
		a.handleCreate(v, reply)
	case *proto.Measurement:
		if st := a.admit(v.SID, v.Seq, false, reply); st != nil {
			a.report(st, v)
		}
	case *proto.Urgent:
		st := a.admit(v.SID, v.Seq, true, reply)
		if st == nil {
			return
		}
		atomic.AddInt64(&a.shared.stats.Urgents, 1)
		st.alg.OnUrgent(st.flow, UrgentEvent{Kind: v.Kind, Value: v.Value})
	case *proto.Close:
		st := a.drop(v.SID)
		if st == nil {
			atomic.AddInt64(&a.shared.stats.UnknownFlowMsg, 1)
			return
		}
		if a.snapshotting && st.snapped {
			a.closedSIDs = append(a.closedSIDs, v.SID)
		}
		atomic.AddInt64(&a.shared.stats.FlowsClosed, 1)
	case *proto.InstallErr:
		// The datapath refused an Install (its §9 verifier gate, a malformed
		// encoding, or a reference to a half it lacks). The flow is fail-safe
		// — the datapath keeps the program it runs, and names it — so the
		// agent's job is to surface the diagnostic and take that program.
		atomic.AddInt64(&a.shared.stats.InstallErrs, 1)
		st, ok := a.flows[v.SID]
		if !ok {
			atomic.AddInt64(&a.shared.stats.UnknownFlowMsg, 1)
			return
		}
		st.flow.noteInstallErr(v)
		a.logf("agent: flow %d: datapath refused install seq %d: %s", v.SID, v.Seq, v.Reason)
	case *proto.Heartbeat:
		// Supervision probe: echo it so the sender measures true
		// request→response latency through this agent's dispatch path. The
		// echo leaves the way a decision does (lend); a Heartbeat always
		// marshals, so what is counted here is a reply that failed.
		atomic.AddInt64(&a.shared.stats.Heartbeats, 1)
		if reply != nil {
			echo := &a.shared.heartbeat
			*echo = proto.Heartbeat{SID: v.SID, Seq: v.Seq, SentAt: v.SentAt}
			if err := a.shared.lend(echo, reply); err != nil {
				atomic.AddInt64(&a.shared.stats.Errors, 1)
			}
		}
	default:
		atomic.AddInt64(&a.shared.stats.Errors, 1)
		a.logf("agent: unexpected message %T", m)
	}
}

// report hands an admitted report to its algorithm, named by the layout of
// the program its epoch names. One of an epoch the flow cannot name (a
// standby restored behind its datapath, a flow rebuilt by a resync Create) is
// counted and dropped, and draws the flow's program again, whole; one whose
// values do not fit its layout counts in Errors and is dropped.
func (a *Agent) report(st *flowState, v *proto.Measurement) {
	l := st.flow.named(v.Epoch)
	if l == nil {
		atomic.AddInt64(&a.shared.stats.UnknownEpochs, 1)
		st.flow.resend()
		return
	}
	meas, counter := Measurement{Seq: v.Seq, Names: l.names, Values: v.Fields}, &a.shared.stats.Measurements
	fits := len(v.Fields) == len(l.names)
	if w := len(l.fields); w > 0 { // vector mode: whole rows, each w wide
		meas.Values, counter, fits = nil, &a.shared.stats.Vectors, len(v.Fields)%w == 0
		st.samples = st.samples[:0]
		for row := v.Fields; fits && len(row) > 0; row = row[w:] {
			st.samples = append(st.samples, PktSample{fields: l.fields, row: row[:w]})
		}
		meas.Samples = st.samples
	}
	if !fits {
		atomic.AddInt64(&a.shared.stats.Errors, 1)
		return
	}
	atomic.AddInt64(counter, 1)
	st.alg.OnMeasurement(st.flow, meas)
}

// admit is the one way a report or an urgent reaches its flow: the flow sid
// must exist, and seq must be fresh against the flow's cursor for its kind
// (reports and urgents are numbered apart). What fails either check is
// counted and nil is returned. A restored flow adopts its datapath's channel
// here, lazily, from the first message that gets through.
func (a *Agent) admit(sid, seq uint32, urgent bool, reply func(frame []byte) error) *flowState {
	st, ok := a.flows[sid]
	if !ok {
		atomic.AddInt64(&a.shared.stats.UnknownFlowMsg, 1)
		return nil
	}
	cursor, refused := &st.lastReportSeq, &a.shared.stats.StaleReports
	if urgent {
		cursor, refused = &st.lastUrgentSeq, &a.shared.stats.DupUrgents
	}
	if !proto.AdmitSeq(seq, cursor) {
		atomic.AddInt64(refused, 1)
		return nil
	}
	if st.flow.send == nil {
		st.flow.send = reply
	}
	st.dirty = true
	return st
}

func (a *Agent) handleCreate(v *proto.Create, reply func(frame []byte) error) {
	// A faulty channel can deliver the same announcement twice; recreating
	// the flow would discard live algorithm state, so replays of the Create
	// this state was built from are ignored. (A Create with a *different*
	// Seq is a real resync and does rebuild the flow.)
	if old, exists := a.flows[v.SID]; exists {
		if v.Seq != 0 && v.Seq == old.createSeq {
			atomic.AddInt64(&a.shared.stats.DupCreates, 1)
			return
		}
		if old.restored && v.Seq != 0 {
			// Resync reaching a snapshot-restored flow: the datapath's CC
			// state is intact (only the agent changed), so rebuilding would
			// throw away the warm-restored algorithm for a cold start. Adopt
			// instead: bind the channel, record the resync's Seq, and keep
			// decision numbering ahead of the newest sequence the datapath
			// has applied. The mark is sticky — a fallback-mode datapath
			// resyncs every liveness tick with an advancing Seq, and each
			// must adopt, not rebuild. A Seq-0 Create is a genuinely
			// restarted datapath (fresh CC state) and takes the rebuild path
			// below.
			old.flow.send = reply
			old.createSeq = v.Seq
			old.flow.skipPast(v.Seq)
			atomic.AddInt64(&a.shared.stats.ResyncAdopts, 1)
			return
		}
	}
	a.newFlow(v, nil, reply)
	atomic.AddInt64(&a.shared.stats.FlowsCreated, 1)
}

// newFlow is the one way a flow is made, from a datapath's Create or, with
// snap set, from a snapshot (whose flow fields c repeats): it instantiates the
// requested algorithm (the default when the name is empty or unregistered),
// applies the policy, replaces whatever the SID held, and runs the
// algorithm's Init on the new flow, which sends on reply.
//
// It also sets where the flow numbers its decisions from. A flow for a fresh
// datapath (a Create with Seq 0) numbers from 0. Any other numbers
// ctrlSeqSkip above the newest control sequence the agent knows of (skipPast):
// a cold build from a resync Create above its Seq, which the datapath may have
// passed by the time the reply arrives, and a restored flow above the
// snapshot's last issued sequence; a restored flow also resumes its dedup
// cursors.
func (a *Agent) newFlow(c *proto.Create, snap *proto.Snapshot, reply func(frame []byte) error) *flowState {
	name := c.Alg
	if name == "" {
		name = a.cfg.DefaultAlg
	}
	alg, ok := a.cfg.Registry.New(name)
	if !ok {
		atomic.AddInt64(&a.shared.stats.UnknownAlgReq, 1)
		a.logf("agent: flow %d requested unknown algorithm %q; using default %q",
			c.SID, name, a.cfg.DefaultAlg)
		alg, _ = a.cfg.Registry.New(a.cfg.DefaultAlg)
	}
	info := FlowInfo{
		SID:      c.SID,
		MSS:      int(c.MSS),
		InitCwnd: int(c.InitCwnd),
		SrcAddr:  c.SrcAddr,
		DstAddr:  c.DstAddr,
		Alg:      name,
	}
	var policy Policy
	if a.cfg.Policy != nil {
		policy = a.cfg.Policy(info)
	}
	st := &flowState{alg: alg, createSeq: c.Seq}
	st.flow = &Flow{Info: info, policy: policy, send: reply, shared: &a.shared,
		epochs: [2]epochRun{{layout: ewmaLayout}}}
	switch {
	case snap != nil:
		st.flow.skipPast(snap.CtrlSeq)
		st.lastReportSeq, st.lastUrgentSeq, st.restored = snap.ReportSeq, snap.UrgentSeq, true
	case c.Seq != 0:
		st.flow.skipPast(c.Seq)
	}
	a.drop(c.SID)
	a.flows[c.SID] = st
	a.live.Store(int64(len(a.flows)))
	alg.Init(st.flow)
	return st
}

// drop removes flow sid, releasing its algorithm, and returns what it held
// (nil for no flow).
func (a *Agent) drop(sid uint32) *flowState {
	st, ok := a.flows[sid]
	if !ok {
		return nil
	}
	if r, ok := st.alg.(Releaser); ok {
		r.Release(st.flow)
	}
	delete(a.flows, sid)
	a.live.Store(int64(len(a.flows)))
	return st
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// Describe returns a human-readable summary of an algorithm's capability
// requirements by instantiating it against a probe flow; used by the
// Table 1 experiment. The probe flow records the installed program without
// any datapath attached. Programs are read off the wire, where only an
// Install that brings a new measure half is whole (Flow.Install): an Init
// that installed twice over one fold would show its second as a reference.
func Describe(factory AlgFactory, mss int) (progs []*lang.Program, direct []string) {
	alg := factory()
	probe := &Flow{
		Info:   FlowInfo{SID: 0, MSS: mss, InitCwnd: 10 * mss},
		shared: new(flowShared),
		send: func(frame []byte) error {
			m, err := proto.Unmarshal(frame)
			if err != nil {
				return err
			}
			switch v := m.(type) {
			case *proto.Install:
				if p, err := lang.UnmarshalProgram(v.Prog); err == nil {
					progs = append(progs, p)
				}
			case *proto.SetCwnd:
				direct = append(direct, "cwnd")
			case *proto.SetRate:
				direct = append(direct, "rate")
			}
			return nil
		},
	}
	alg.Init(probe)
	return progs, direct
}
