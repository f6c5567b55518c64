package proto

// This file defines the HA replication messages: Snapshot carries one flow's
// congestion-control state from a primary agent to a warm standby, and
// Heartbeat is the supervision probe used for agent health scoring. Both ride
// the same wire codec as the datapath messages so the standby channel reuses
// the pooled-frame transports unchanged.

// SnapshotVersion is the only snapshot encoding this build reads or writes.
// A decoder seeing any other version errors out rather than guessing — a
// standby from a different build must not restore state it half-understands.
const SnapshotVersion = 1

// Snapshot flag bits (a decode rejecting unknown bits keeps the encoding
// canonical: exactly one byte sequence per message).
const (
	snapFlagClosed    = 1 << 0
	snapFlagInstalled = 1 << 1
)

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
	SID    uint32
	Closed bool // tombstone: drop the flow at the standby
	// Installed mirrors whether the primary had sent the flow's program; a
	// restored flow must not re-enter the install handshake if so.
	Installed bool
	MSS       uint32
	InitCwnd  uint32 // bytes
	CtrlSeq   uint32 // last control sequence number the primary issued
	CreateSeq uint32 // Create dedup state (see core's createSeq)
	ReportSeq uint32 // last report sequence number accepted
	UrgentSeq uint32 // last urgent sequence number accepted
	SrcAddr   string
	DstAddr   string
	Alg       string
	// Prog is the serialized installed program. Decoded Snapshots alias the
	// input buffer here (the Install.Prog rule); retainers must Clone.
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

func (m *Snapshot) Type() MsgType  { return TypeSnapshot }
func (m *Heartbeat) Type() MsgType { return TypeHeartbeat }

func (m *Snapshot) FlowSID() uint32  { return m.SID }
func (m *Heartbeat) FlowSID() uint32 { return m.SID }

// maxSnapStateLen bounds the exported register count; generous next to any
// real algorithm (BBR exports ~10) but small enough that a corrupt length
// cannot drive a large allocation.
const maxSnapStateLen = 256

func (m *Snapshot) flags() byte {
	var f byte
	if m.Closed {
		f |= snapFlagClosed
	}
	if m.Installed {
		f |= snapFlagInstalled
	}
	return f
}
