package proto

import "time"

// This file defines the HA replication messages: Snapshot carries one flow's
// congestion-control state from a primary agent to a warm standby, and
// Heartbeat is the supervision probe used for agent health scoring. Both ride
// the same wire codec as the datapath messages so the standby channel reuses
// the pooled-frame transports unchanged. ProbeScore is the one score both
// senders of Heartbeats keep.

// SnapshotVersion is the only snapshot encoding this build reads or writes.
// A decoder seeing any other version errors out rather than guessing — a
// standby from a different build must not restore state it half-understands.
// Version 2 retired version 1's "installed" flag: Prog is empty or a program.
const SnapshotVersion = 2

// snapFlagClosed is the one snapshot flag. A decode refuses any other bit,
// which keeps the encoding canonical: one byte sequence per message.
const snapFlagClosed = 1 << 0

// Snapshot is one flow's portable congestion-control state: everything a
// standby agent needs to resume fresh decisions for the flow without a
// datapath round trip. Identity and sequence-space fields mirror Create;
// Prog is the installed datapath program (so the restored flow interprets
// reports without re-deriving names); State is the algorithm's private
// registers, exported via core.SnapshotExporter in a stable order the same
// algorithm re-imports.
//
// A Snapshot with Closed set is a tombstone: the flow ended and the standby
// must forget it. Tombstones carry no program or state.
type Snapshot struct {
	SID       uint32
	Closed    bool // tombstone: drop the flow at the standby
	MSS       uint32
	InitCwnd  uint32 // bytes
	CtrlSeq   uint32 // last control sequence number the primary issued
	CreateSeq uint32 // Create dedup state (see core's createSeq)
	ReportSeq uint32 // last report sequence number accepted
	UrgentSeq uint32 // last urgent sequence number accepted
	SrcAddr   string
	DstAddr   string
	Alg       string
	// Prog is the installed program (none before the first Install); decoded
	// Snapshots alias the input buffer here (the Install.Prog rule).
	Prog []byte
	// State is the algorithm's exported registers (cwnd, ssthresh, phase,
	// fold accumulators, ...) in the algorithm's own documented order.
	State []float64
}

// Heartbeat is a supervision probe. The supervisor (or a datapath liveness
// layer) sends one with its current clock in SentAt; a healthy agent echoes
// it verbatim, so the sender measures true request→response latency as
// now − SentAt with no pending-probe table. SID 0 probes the agent as a
// whole; a nonzero SID attributes the probe to one flow's handler path.
// Heartbeats are advisory: they carry no decision and never count as
// control liveness.
type Heartbeat struct {
	SID    uint32
	Seq    uint32
	SentAt float64 // sender's clock at send time, seconds
}

// probeAlpha is the gain of ProbeScore's EWMA: heavy enough that a handful
// of healthy echoes after a heal brings the score down within a few probe
// intervals, light enough that one jittered echo cannot.
const probeAlpha = 0.3

// ProbeScore is the health score a Heartbeat sender keeps of the agent that
// echoes its probes: an EWMA of round-trip latency in seconds, seeded by its
// first sample, over samples clamped to [0, limit]. Silence counts too: at
// each probe, the age of the oldest probe still unanswered is folded in as a
// sample, so a dead or paused agent's score climbs though no echo arrives.
// An echo of that probe or of a later one answers it.
//
// Both senders keep one — a datapath's fail-safe layer and the agent
// supervisor — each with its own thresholds on the score, its own limit
// (twice its latency budget) and its own clock arithmetic for an echo's round
// trip. The zero value is an unscored score numbering from 1.
type ProbeScore struct {
	ewma float64
	// oldest and oldestAt are the oldest unanswered probe's number and send
	// time when outstanding is set; seq is the newest probe's number.
	oldestAt    time.Duration
	seq         uint32
	oldest      uint32
	scored      bool
	outstanding bool
}

// Probe numbers a probe sent at now. If an earlier probe is still
// unanswered, its age is folded in first and missed is true.
func (p *ProbeScore) Probe(now time.Duration, limit float64) (seq uint32, missed bool) {
	if p.outstanding {
		missed = true
		p.fold((now - p.oldestAt).Seconds(), limit)
	}
	seq = NextSeq(&p.seq)
	if !p.outstanding {
		p.oldest, p.oldestAt, p.outstanding = seq, now, true
	}
	return seq, missed
}

// Echo folds in the round trip lat (seconds) of the echo of probe seq.
func (p *ProbeScore) Echo(seq uint32, lat, limit float64) {
	p.fold(lat, limit)
	if p.outstanding && (seq == p.oldest || SeqNewer(seq, p.oldest)) {
		p.outstanding = false
	}
}

func (p *ProbeScore) fold(s, limit float64) {
	if s < 0 {
		s = 0
	}
	if s > limit {
		s = limit
	}
	if !p.scored {
		p.ewma, p.scored = s, true
	} else {
		p.ewma = (1-probeAlpha)*p.ewma + probeAlpha*s
	}
}

// Score returns the EWMA latency in seconds, and false before any sample.
func (p *ProbeScore) Score() (float64, bool) { return p.ewma, p.scored }

// Outstanding reports whether a probe is still unanswered.
func (p *ProbeScore) Outstanding() bool { return p.outstanding }

// Reset forgets the score and every unanswered probe, for a new agent to be
// judged on its own echoes. Numbering continues.
func (p *ProbeScore) Reset() { *p = ProbeScore{seq: p.seq} }

func (m *Snapshot) Type() MsgType  { return TypeSnapshot }
func (m *Heartbeat) Type() MsgType { return TypeHeartbeat }

func (m *Snapshot) FlowSID() uint32  { return m.SID }
func (m *Heartbeat) FlowSID() uint32 { return m.SID }

// maxSnapStateLen bounds the exported register count; generous next to any
// real algorithm (BBR exports ~10) but small enough that a corrupt length
// cannot drive a large allocation.
const maxSnapStateLen = 256

func (m *Snapshot) flags() byte {
	if m.Closed {
		return snapFlagClosed
	}
	return 0
}
