// Package proto defines the binary wire protocol spoken between CCP
// datapaths and the CCP agent (Figure 1's two arrows). It is deliberately
// narrow — the paper's thesis is that this small message set suffices for a
// wide range of congestion control algorithms:
//
//	datapath → agent: Create, Measurement, Vector, Urgent, Close, InstallErr
//	agent → datapath: Install, SetCwnd, SetRate
//
// Messages are encoded little-endian with uvarint lengths; each Marshal
// produces exactly one self-contained message (the transport adds framing).
// Decoding is defensive: lengths are bounded by both a fixed cap and the
// remaining input, varints must be minimal (one canonical encoding per
// message), and truncated or malformed input returns an error, never a
// panic.
//
// Control messages (Install, SetCwnd, SetRate) and datapath events (Create,
// Urgent) carry a per-flow sequence number so that an unreliable channel —
// one that reorders or duplicates messages — cannot regress a newer decision
// or double-count an urgent event. Seq 0 means "unsequenced" and is always
// accepted; see SeqNewer for the comparison rule.
package proto

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MsgType discriminates wire messages.
type MsgType uint8

// Wire message types.
const (
	TypeCreate MsgType = iota + 1
	TypeMeasurement
	TypeVector
	TypeUrgent
	TypeClose
	TypeInstall
	TypeSetCwnd
	TypeSetRate
	// 9 and 10 are reserved and decode as unknown types. They once carried
	// report batches and overload backoffs; keeping the gap keeps every other
	// type's byte, and so which corrupted frames still decode.
	_
	_
	TypeSnapshot
	TypeHeartbeat
	TypeInstallErr
)

func (t MsgType) String() string {
	switch t {
	case TypeCreate:
		return "Create"
	case TypeMeasurement:
		return "Measurement"
	case TypeVector:
		return "Vector"
	case TypeUrgent:
		return "Urgent"
	case TypeClose:
		return "Close"
	case TypeInstall:
		return "Install"
	case TypeSetCwnd:
		return "SetCwnd"
	case TypeSetRate:
		return "SetRate"
	case TypeSnapshot:
		return "Snapshot"
	case TypeHeartbeat:
		return "Heartbeat"
	case TypeInstallErr:
		return "InstallErr"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Msg is any wire message.
type Msg interface {
	Type() MsgType
	// SID returns the socket/flow id the message concerns.
	FlowSID() uint32
}

// Handler is anything that consumes datapath→agent messages: a bare
// core.Agent, the sharded runtime.Runtime, a fault injector or a warm standby
// in front of either. Bridges, serve loops and supervisors dispatch into a
// Handler without caring which.
//
// Ownership is one rule in both directions. m is borrowed for the duration
// of the call — callers decode into reusable scratch and reclaim it after
// HandleMessage returns, so an implementation that queues m must take its
// own copy (the sharded Runtime copies reports into containers its mailboxes
// recycle, and Clones the rest). Every message passed to reply is likewise
// borrowed for the duration of that call — the agent builds its decisions in
// storage it reuses for the next one, so a reply that keeps a message past
// its return must Clone it; one that marshals before returning, as every
// transport-backed reply does, has nothing to do.
type Handler interface {
	HandleMessage(m Msg, reply func(Msg) error)
}

// Create announces a new flow to the agent (triggering the algorithm's
// Init handler). A datapath re-sends Create to resynchronize after an agent
// restart; Seq then carries the highest control sequence number the datapath
// has applied, so the restarted agent resumes the flow's sequence space
// instead of starting below it.
type Create struct {
	SID      uint32
	MSS      uint32
	InitCwnd uint32 // bytes
	// Seq is the datapath's last applied control sequence number (0 for a
	// brand-new flow). The agent's flow state continues numbering above it.
	Seq     uint32
	SrcAddr string
	DstAddr string
	// Alg optionally requests a specific registered algorithm; empty means
	// the agent's default.
	Alg string
}

// Measurement is a batched fold/EWMA report: the values of the report
// fields, in the installed program's register order.
type Measurement struct {
	SID    uint32
	Seq    uint32 // report sequence number, per flow
	Fields []float64
}

// Vector is a batched per-packet report: NumFields values per packet,
// row-major, in the installed program's field order.
type Vector struct {
	SID       uint32
	Seq       uint32
	NumFields uint8
	Data      []float64
}

// Rows returns the number of packets in the vector.
func (v *Vector) Rows() int {
	if v.NumFields == 0 {
		return 0
	}
	return len(v.Data) / int(v.NumFields)
}

// Row returns the i-th packet's values (aliasing Data).
func (v *Vector) Row(i int) []float64 {
	n := int(v.NumFields)
	return v.Data[i*n : (i+1)*n]
}

// UrgentKind classifies urgent datapath events (§2.1): signals important
// enough to bypass batching.
type UrgentKind uint8

// Urgent event kinds.
const (
	UrgentDupAck  UrgentKind = iota + 1 // triple duplicate ACK (fast retransmit)
	UrgentTimeout                       // retransmission timeout
	UrgentECN                           // ECN mark (only if the program opts in)
)

func (k UrgentKind) String() string {
	switch k {
	case UrgentDupAck:
		return "dupack"
	case UrgentTimeout:
		return "timeout"
	case UrgentECN:
		return "ecn"
	}
	return fmt.Sprintf("urgent(%d)", uint8(k))
}

// Urgent reports an urgent event immediately, outside the batching schedule.
// Seq lets the agent discard a duplicated delivery, which would otherwise
// double-count a loss event.
type Urgent struct {
	SID   uint32
	Seq   uint32 // urgent sequence number, per flow (0 = unsequenced)
	Kind  UrgentKind
	Value float64 // bytes lost (dupack/timeout) or marks seen (ecn)
}

// Close announces flow teardown.
type Close struct {
	SID uint32
}

// Install carries a serialized lang.Program to the datapath. Install,
// SetCwnd, and SetRate share one per-flow control sequence space so a stale
// decision of any kind can never overwrite a newer one.
type Install struct {
	SID  uint32
	Seq  uint32 // control sequence number (0 = unsequenced)
	Prog []byte
}

// InstallErr is the datapath's reply to an Install it refused: the program
// failed to parse or was rejected by the install-time verifier. Seq echoes
// the Install's control sequence number so the agent can attribute the
// refusal; the previously installed program (or the default) stays in
// force, so a refused install degrades the flow, never breaks it.
type InstallErr struct {
	SID    uint32
	Seq    uint32 // the refused Install's control sequence number
	Reason string // human-readable cause, truncated to fit the wire format
}

// SetCwnd directly sets the congestion window (bytes). It is the degenerate
// control program for datapaths without program executors.
type SetCwnd struct {
	SID   uint32
	Seq   uint32 // control sequence number (0 = unsequenced)
	Bytes uint32
}

// SetRate directly sets the pacing rate (bytes/sec).
type SetRate struct {
	SID uint32
	Seq uint32 // control sequence number (0 = unsequenced)
	Bps float64
}

// SeqNewer reports whether sequence number a is newer than b under
// wraparound arithmetic (serial number comparison): a is newer when it lies
// at most 2^31-1 increments ahead of b. Sequence number 0 is reserved for
// "unsequenced" and should be special-cased by callers before comparing.
func SeqNewer(a, b uint32) bool { return int32(a-b) > 0 }

func (m *Create) Type() MsgType      { return TypeCreate }
func (m *Measurement) Type() MsgType { return TypeMeasurement }
func (m *Vector) Type() MsgType      { return TypeVector }
func (m *Urgent) Type() MsgType      { return TypeUrgent }
func (m *Close) Type() MsgType       { return TypeClose }
func (m *Install) Type() MsgType     { return TypeInstall }
func (m *SetCwnd) Type() MsgType     { return TypeSetCwnd }
func (m *SetRate) Type() MsgType     { return TypeSetRate }
func (m *InstallErr) Type() MsgType  { return TypeInstallErr }

func (m *Create) FlowSID() uint32      { return m.SID }
func (m *Measurement) FlowSID() uint32 { return m.SID }
func (m *Vector) FlowSID() uint32      { return m.SID }
func (m *Urgent) FlowSID() uint32      { return m.SID }
func (m *Close) FlowSID() uint32       { return m.SID }
func (m *Install) FlowSID() uint32     { return m.SID }
func (m *SetCwnd) FlowSID() uint32     { return m.SID }
func (m *SetRate) FlowSID() uint32     { return m.SID }
func (m *InstallErr) FlowSID() uint32  { return m.SID }

// Split returns []Msg{m}: every message is its own frame. It stays only
// because the benchmark harness's receive path calls it, until that
// harness's next revision (ROADMAP item 2) drops the call.
func Split(m Msg) []Msg {
	return []Msg{m}
}

// Limits bound decoder allocations against malformed input.
const (
	maxStringLen   = 255
	maxFieldCount  = 1 << 12
	maxVectorLen   = 1 << 20
	maxProgramSize = 1 << 16
)

// Marshal encodes m as one self-contained message.
//
//lint:testsupport the one-call encoder of the proto, runtime, harness, supervise, datapath and core tests and of the root and benchmark/ benchmarks
func Marshal(m Msg) ([]byte, error) {
	return AppendMarshal(nil, m)
}

// AppendMarshal encodes m, appending to dst.
func AppendMarshal(dst []byte, m Msg) ([]byte, error) {
	b := append(dst, byte(m.Type()))
	switch v := m.(type) {
	case *Create:
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.MSS)
		b = binary.LittleEndian.AppendUint32(b, v.InitCwnd)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		var err error
		if b, err = appendStr(b, v.SrcAddr); err != nil {
			return nil, err
		}
		if b, err = appendStr(b, v.DstAddr); err != nil {
			return nil, err
		}
		if b, err = appendStr(b, v.Alg); err != nil {
			return nil, err
		}
	case *Measurement:
		if len(v.Fields) > maxFieldCount {
			return nil, fmt.Errorf("proto: too many fields (%d)", len(v.Fields))
		}
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = binary.AppendUvarint(b, uint64(len(v.Fields)))
		for _, f := range v.Fields {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	case *Vector:
		if len(v.Data) > maxVectorLen {
			return nil, fmt.Errorf("proto: vector too large (%d)", len(v.Data))
		}
		if v.NumFields == 0 || len(v.Data)%int(v.NumFields) != 0 {
			return nil, fmt.Errorf("proto: vector data (%d) not a multiple of fields (%d)", len(v.Data), v.NumFields)
		}
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = append(b, v.NumFields)
		b = binary.AppendUvarint(b, uint64(len(v.Data)))
		for _, f := range v.Data {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	case *Urgent:
		if v.Kind < UrgentDupAck || v.Kind > UrgentECN {
			return nil, fmt.Errorf("proto: invalid urgent kind %d", v.Kind)
		}
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = append(b, byte(v.Kind))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Value))
	case *Close:
		b = binary.LittleEndian.AppendUint32(b, v.SID)
	case *Install:
		if len(v.Prog) > maxProgramSize {
			return nil, fmt.Errorf("proto: program too large (%d bytes)", len(v.Prog))
		}
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = binary.AppendUvarint(b, uint64(len(v.Prog)))
		b = append(b, v.Prog...)
	case *SetCwnd:
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = binary.LittleEndian.AppendUint32(b, v.Bytes)
	case *SetRate:
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Bps))
	case *Snapshot:
		if len(v.Prog) > maxProgramSize {
			return nil, fmt.Errorf("proto: snapshot program too large (%d bytes)", len(v.Prog))
		}
		if len(v.State) > maxSnapStateLen {
			return nil, fmt.Errorf("proto: snapshot state too large (%d registers)", len(v.State))
		}
		b = append(b, SnapshotVersion)
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = append(b, v.flags())
		b = binary.LittleEndian.AppendUint32(b, v.MSS)
		b = binary.LittleEndian.AppendUint32(b, v.InitCwnd)
		b = binary.LittleEndian.AppendUint32(b, v.CtrlSeq)
		b = binary.LittleEndian.AppendUint32(b, v.CreateSeq)
		b = binary.LittleEndian.AppendUint32(b, v.ReportSeq)
		b = binary.LittleEndian.AppendUint32(b, v.UrgentSeq)
		var err error
		if b, err = appendStr(b, v.SrcAddr); err != nil {
			return nil, err
		}
		if b, err = appendStr(b, v.DstAddr); err != nil {
			return nil, err
		}
		if b, err = appendStr(b, v.Alg); err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(len(v.Prog)))
		b = append(b, v.Prog...)
		b = binary.AppendUvarint(b, uint64(len(v.State)))
		for _, f := range v.State {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	case *Heartbeat:
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.SentAt))
	case *InstallErr:
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		var err error
		if b, err = appendStr(b, v.Reason); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("proto: cannot marshal %T", m)
	}
	return b, nil
}

// Unmarshal decodes one message into freshly allocated structs, with one
// exception: Install.Prog aliases data (see Decoder for the rule). Receive
// loops that decode at high rates should hold a reusable Decoder instead.
//
//lint:testsupport the allocating decoder of the proto, runtime, bridge and core tests and of the root benchmarks
func Unmarshal(data []byte) (Msg, error) {
	var dec Decoder
	return dec.Unmarshal(data)
}

type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("proto: truncated message")
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.pos >= len(d.data) {
		d.fail()
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.pos+4 > len(d.data) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil || d.pos+8 > len(d.data) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

// length decodes a uvarint element count. It rejects non-minimal varint
// encodings (keeping the wire format canonical: one byte sequence per
// message) and counts whose payload could not fit in the remaining input, so
// a corrupt length can never drive an allocation larger than the message
// itself.
func (d *decoder) length(max, elemSize int) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 || v > uint64(max) || n != uvarintLen(v) {
		d.err = fmt.Errorf("proto: bad length")
		return 0
	}
	d.pos += n
	if int(v)*elemSize > len(d.data)-d.pos {
		d.fail()
		return 0
	}
	return int(v)
}

// uvarintLen returns the number of bytes of the minimal uvarint encoding
// of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// view returns the next n bytes aliasing the input (Install.Prog and
// Snapshot.Prog: the receiver copies on its own terms).
func (d *decoder) view(n int) []byte {
	if d.err != nil || d.pos+n > len(d.data) {
		d.fail()
		return nil
	}
	out := d.data[d.pos : d.pos+n]
	d.pos += n
	return out
}

func (d *decoder) str() string {
	n := int(d.byte())
	if d.err != nil || d.pos+n > len(d.data) {
		d.fail()
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

// strInto decodes a length-prefixed string, returning prev unchanged when
// the wire bytes match it. A Decoder whose scratch element retains the
// previous decode's strings (flow identity fields repeat every snapshot)
// therefore reaches a zero-allocation steady state; the comparison itself
// does not allocate.
func (d *decoder) strInto(prev string) string {
	n := int(d.byte())
	if d.err != nil || d.pos+n > len(d.data) {
		d.fail()
		return ""
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	if string(b) == prev {
		return prev
	}
	return string(b)
}

func appendStr(b []byte, s string) ([]byte, error) {
	if len(s) > maxStringLen {
		return nil, fmt.Errorf("proto: string too long (%d)", len(s))
	}
	b = append(b, byte(len(s)))
	return append(b, s...), nil
}
