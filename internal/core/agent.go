package core

import (
	"fmt"
	"sync"

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

// AgentStats counts the agent's activity.
type AgentStats struct {
	FlowsCreated   int
	FlowsClosed    int
	Measurements   int
	Vectors        int
	Urgents        int
	UnknownFlowMsg int
	UnknownAlgReq  int
	Errors         int
	// DupCreates counts duplicated Create deliveries for a flow the agent
	// already tracks (same announcement replayed by a faulty channel).
	DupCreates int
	// DupUrgents counts urgent events discarded because their sequence
	// number had already been seen — a duplicated or reordered delivery.
	DupUrgents int
	// ResyncAdopts counts datapath resync Creates absorbed by a restored
	// flow: after failover the datapath's CC state is intact, so the
	// promoted agent adopts the channel instead of cold-rebuilding the flow.
	ResyncAdopts int
	// StaleReports counts measurements and vectors discarded because a newer
	// report had already been processed.
	StaleReports int
	// Restores counts flows rebuilt from snapshots (standby promotion).
	Restores int
	// Heartbeats counts supervision probes echoed.
	Heartbeats int
	// InstallErrs counts datapath refusals of installed programs (verifier
	// rejections, malformed encodings). Each one means the refusing flow kept
	// running its previous program.
	InstallErrs int
	// InstallsByRef counts the Installs sent as a reference to the measure
	// half of an earlier one plus a control half (Flow.Install). RefResends
	// counts the programs sent again, whole, because the datapath refused a
	// reference to the flow's newest whole Install (Flow.noteInstallErr); each
	// answers one of InstallErrs.
	InstallsByRef int
	RefResends    int
}

// Agent is the user-space congestion control plane: it multiplexes flows
// from one or more datapaths onto per-flow algorithm instances and relays
// their decisions back. Dispatch is a synchronous state transition, so the
// agent runs identically on the simulator event loop (deterministic) and
// behind a transport goroutine (internal/runtime's serve loops). It is a
// proto.Handler and knows nothing of transports.
type Agent struct {
	cfg AgentConfig

	mu    sync.Mutex
	flows map[uint32]*flowState
	stats AgentStats
	// shared is the block every flow of this agent points at; its message
	// scratch is written only under mu.
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
	// Snapshot dirty tracking: snapped marks a state exported at least once;
	// snapReports/snapUrgents are the flow's activity counters as of that
	// export, so an idle flow is skipped by incremental snapshots.
	snapped     bool
	snapReports int
	snapUrgents int
	// restored marks a flow rebuilt from a snapshot whose datapath has not
	// spoken to this agent yet; the first resync Create is adopted rather
	// than treated as a datapath restart (see handleCreate).
	restored bool
}

// staleSeq reports whether a datapath-stamped sequence number has already
// been seen, advancing *last when it is fresh. Seq 0 is unsequenced and
// always fresh.
func staleSeq(seq uint32, last *uint32) bool {
	if seq == 0 {
		return false
	}
	if !proto.SeqNewer(seq, *last) {
		return true
	}
	*last = seq
	return false
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

// Stats returns a snapshot of the agent counters.
func (a *Agent) Stats() AgentStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.InstallsByRef, s.RefResends = a.shared.installsByRef, a.shared.refResends
	return s
}

// FlowCount returns the number of live flows.
func (a *Agent) FlowCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.flows)
}

// HandleMessage processes one datapath→agent message. reply transmits
// agent→datapath messages for the flow's datapath (it is captured by the
// flow created on Create, so each datapath keeps its own channel).
//
// Ownership is proto.Handler's rule: m is borrowed for the duration of this
// call, and every message handed to reply — built in storage the agent reuses
// for its next decision — for the duration of that one.
func (a *Agent) HandleMessage(m proto.Msg, reply func(proto.Msg) error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch v := m.(type) {
	case *proto.Create:
		a.handleCreate(v, reply)
	case *proto.Measurement:
		st, ok := a.flows[v.SID]
		if !ok {
			a.stats.UnknownFlowMsg++
			return
		}
		if staleSeq(v.Seq, &st.lastReportSeq) {
			a.stats.StaleReports++
			return
		}
		if st.flow.send == nil {
			st.flow.send = reply // restored flow adopts its datapath lazily
		}
		a.stats.Measurements++
		st.flow.reports++
		names := st.flow.reportNames()
		meas := Measurement{Seq: v.Seq, Names: names, Values: v.Fields}
		st.alg.OnMeasurement(st.flow, meas)
	case *proto.Vector:
		st, ok := a.flows[v.SID]
		if !ok {
			a.stats.UnknownFlowMsg++
			return
		}
		if staleSeq(v.Seq, &st.lastReportSeq) {
			a.stats.StaleReports++
			return
		}
		if st.flow.send == nil {
			st.flow.send = reply
		}
		a.stats.Vectors++
		st.flow.reports++
		fields := st.flow.vectorFields()
		meas := Measurement{Seq: v.Seq, Names: st.flow.reportNames()}
		if int(v.NumFields) == len(fields) {
			samples := st.samples[:0]
			for i := 0; i < v.Rows(); i++ {
				samples = append(samples, PktSample{fields: fields, row: v.Row(i)})
			}
			st.samples = samples
			meas.Samples = samples
		}
		st.alg.OnMeasurement(st.flow, meas)
	case *proto.Urgent:
		st, ok := a.flows[v.SID]
		if !ok {
			a.stats.UnknownFlowMsg++
			return
		}
		if staleSeq(v.Seq, &st.lastUrgentSeq) {
			a.stats.DupUrgents++
			return
		}
		if st.flow.send == nil {
			st.flow.send = reply
		}
		a.stats.Urgents++
		st.flow.urgents++
		st.alg.OnUrgent(st.flow, UrgentEvent{Kind: v.Kind, Value: v.Value})
	case *proto.Close:
		st, ok := a.flows[v.SID]
		if !ok {
			a.stats.UnknownFlowMsg++
			return
		}
		if r, ok := st.alg.(Releaser); ok {
			r.Release(st.flow)
		}
		delete(a.flows, v.SID)
		if a.snapshotting && st.snapped {
			a.closedSIDs = append(a.closedSIDs, v.SID)
		}
		a.stats.FlowsClosed++
	case *proto.InstallErr:
		// The datapath refused an Install (its §9 verifier gate, or a
		// malformed encoding). The flow is fail-safe — the datapath keeps its
		// previous program — so the agent's job is to surface the diagnostic
		// and stop trusting that the refused program is live.
		a.stats.InstallErrs++
		st, ok := a.flows[v.SID]
		if !ok {
			a.stats.UnknownFlowMsg++
			return
		}
		st.flow.noteInstallErr(v.Seq, v.Reason)
		a.logf("agent: flow %d: datapath refused install seq %d: %s", v.SID, v.Seq, v.Reason)
	case *proto.Heartbeat:
		// Supervision probe: echo it so the sender measures true
		// request→response latency through this agent's dispatch path. The
		// echo is the agent's own message, not v: v is the caller's storage,
		// which its reply should not find itself handed back.
		a.stats.Heartbeats++
		if reply != nil {
			echo := &a.shared.heartbeat
			*echo = proto.Heartbeat{SID: v.SID, Seq: v.Seq, SentAt: v.SentAt}
			if err := reply(echo); err != nil {
				a.stats.Errors++
			}
		}
	default:
		a.stats.Errors++
		a.logf("agent: unexpected message %T", m)
	}
}

func (a *Agent) handleCreate(v *proto.Create, reply func(proto.Msg) error) {
	// A faulty channel can deliver the same announcement twice; recreating
	// the flow would discard live algorithm state, so replays of the Create
	// this state was built from are ignored. (A Create with a *different*
	// Seq is a real resync and does rebuild the flow.)
	if old, exists := a.flows[v.SID]; exists {
		if v.Seq != 0 && v.Seq == old.createSeq {
			a.stats.DupCreates++
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
			if !proto.SeqNewer(old.flow.ctrlSeq, v.Seq) {
				old.flow.ctrlSeq = v.Seq + ctrlSeqSkip
			}
			a.stats.ResyncAdopts++
			return
		}
	}
	name := v.Alg
	if name == "" {
		name = a.cfg.DefaultAlg
	}
	alg, ok := a.cfg.Registry.New(name)
	if !ok {
		a.stats.UnknownAlgReq++
		a.logf("agent: flow %d requested unknown algorithm %q; using default %q",
			v.SID, name, a.cfg.DefaultAlg)
		alg, _ = a.cfg.Registry.New(a.cfg.DefaultAlg)
	}
	info := FlowInfo{
		SID:      v.SID,
		MSS:      int(v.MSS),
		InitCwnd: int(v.InitCwnd),
		SrcAddr:  v.SrcAddr,
		DstAddr:  v.DstAddr,
		Alg:      name,
	}
	var policy Policy
	if a.cfg.Policy != nil {
		policy = a.cfg.Policy(info)
	}
	// The Create's Seq is the newest control sequence the datapath has
	// applied (nonzero on resync); the flow numbers its decisions above it.
	flow := &Flow{Info: info, policy: policy, send: reply, ctrlSeq: v.Seq, shared: &a.shared}
	// Replacing an existing SID (datapath restart or resync) releases the
	// old state.
	if old, exists := a.flows[v.SID]; exists {
		if r, ok := old.alg.(Releaser); ok {
			r.Release(old.flow)
		}
	}
	a.flows[v.SID] = &flowState{flow: flow, alg: alg, createSeq: v.Seq}
	a.stats.FlowsCreated++
	alg.Init(flow)
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
	var captured []*lang.Program
	var directMsgs []string
	probe := &Flow{
		Info:   FlowInfo{SID: 0, MSS: mss, InitCwnd: 10 * mss},
		shared: new(flowShared),
		send: func(m proto.Msg) error {
			switch v := m.(type) {
			case *proto.Install:
				if p, err := lang.UnmarshalProgram(v.Prog); err == nil {
					captured = append(captured, p)
				}
			case *proto.SetCwnd:
				directMsgs = append(directMsgs, "cwnd")
			case *proto.SetRate:
				directMsgs = append(directMsgs, "rate")
			}
			return nil
		},
	}
	alg.Init(probe)
	return captured, directMsgs
}
