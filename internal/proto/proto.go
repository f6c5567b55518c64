// Package proto defines the binary wire protocol spoken between CCP
// datapaths and the CCP agent (Figure 1's two arrows). It is deliberately
// narrow — the paper's thesis is that this small message set suffices for a
// wide range of congestion control algorithms:
//
//	datapath → agent: Create, Measurement, Urgent, Close, InstallErr
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
// accepted. Both ends share one rule each way: a sender numbers with NextSeq,
// a receiver checks with AdmitSeq, and both compare with SeqNewer.
//
// What the datapath sends names the program it concerns: a Measurement the
// epoch of the program that folded it, an InstallErr the epoch and the whole
// program that stays in force.
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
	// 3, 9 and 10 are reserved and decode as unknown types. They once carried
	// vector reports (now Measurements whose epoch says their row width),
	// report batches and overload backoffs; keeping the gaps keeps every other
	// type's byte, and so which corrupted frames still decode.
	_
	TypeUrgent
	TypeClose
	TypeInstall
	TypeSetCwnd
	TypeSetRate
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

// Measurement is the one report, stamped with the epoch of the program whose
// measure half gathered it: the Seq of the whole Install that brought that
// half, or 0 for the default program. The epoch alone says how Fields is laid
// out: a value per fold register or EWMA field, or, in vector mode, a row
// per packet, row-major, as wide as the program's field list.
type Measurement struct {
	SID    uint32
	Seq    uint32 // report sequence number, per flow
	Epoch  uint32 // the program that folded the report (0: the default)
	Fields []float64
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
// failed to parse, was rejected by the install-time verifier, or referred to
// a measure half the flow does not run. Seq echoes the Install's control
// sequence number. The program in force stays in force, so a refused install
// degrades the flow, never breaks it, and Epoch and Prog name it, whole.
type InstallErr struct {
	SID    uint32
	Seq    uint32 // the refused Install's control sequence number
	Epoch  uint32 // the epoch still in force (0: the default program)
	Reason string // human-readable cause, truncated to fit the wire format
	Prog   []byte // the program in force, whole (empty: none before Init)
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

// NextSeq advances the counter *last and returns the new sequence number,
// skipping 0 on wrap: 0 marks an unsequenced message. Every sequence number
// a sender stamps comes from here.
func NextSeq(last *uint32) uint32 {
	*last++
	if *last == 0 {
		*last = 1
	}
	return *last
}

// AdmitSeq reports whether a received sequence number is fresh — newer than
// *last, the newest admitted so far, which it then becomes — or 0, which is
// unsequenced and always admitted without moving *last. A false result is a
// duplicated or reordered copy of something already superseded. Every
// receiver checks sequence numbers here.
func AdmitSeq(seq uint32, last *uint32) bool {
	if seq == 0 {
		return true
	}
	if !SeqNewer(seq, *last) {
		return false
	}
	*last = seq
	return true
}

func (m *Create) Type() MsgType      { return TypeCreate }
func (m *Measurement) Type() MsgType { return TypeMeasurement }
func (m *Urgent) Type() MsgType      { return TypeUrgent }
func (m *Close) Type() MsgType       { return TypeClose }
func (m *Install) Type() MsgType     { return TypeInstall }
func (m *SetCwnd) Type() MsgType     { return TypeSetCwnd }
func (m *SetRate) Type() MsgType     { return TypeSetRate }
func (m *InstallErr) Type() MsgType  { return TypeInstallErr }

func (m *Create) FlowSID() uint32      { return m.SID }
func (m *Measurement) FlowSID() uint32 { return m.SID }
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
	maxFieldCount  = 1 << 20 // a vector-mode report's rows times its width
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
		return appendStr(b, v.SrcAddr, v.DstAddr, v.Alg)
	case *Measurement:
		if len(v.Fields) > maxFieldCount {
			return nil, fmt.Errorf("proto: too many fields (%d)", len(v.Fields))
		}
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = binary.AppendUvarint(b, uint64(v.Epoch))
		b = binary.AppendUvarint(b, uint64(len(v.Fields)))
		for _, f := range v.Fields {
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
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		return appendProg(b, v.Prog)
	case *SetCwnd:
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = binary.LittleEndian.AppendUint32(b, v.Bytes)
	case *SetRate:
		b = binary.LittleEndian.AppendUint32(b, v.SID)
		b = binary.LittleEndian.AppendUint32(b, v.Seq)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Bps))
	case *Snapshot:
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
		b = binary.AppendUvarint(b, uint64(v.Epoch))
		var err error
		if b, err = appendStr(b, v.SrcAddr, v.DstAddr, v.Alg); err != nil {
			return nil, err
		}
		if b, err = appendProg(b, v.Prog); err != nil {
			return nil, err
		}
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
		b = binary.AppendUvarint(b, uint64(v.Epoch))
		var err error
		if b, err = appendStr(b, v.Reason); err != nil {
			return nil, err
		}
		return appendProg(b, v.Prog)
	default:
		return nil, fmt.Errorf("proto: cannot marshal %T", m)
	}
	return b, nil
}

// Unmarshal decodes one message into freshly allocated structs, with one
// exception: programs alias data (see Decoder for the rule). It is for
// cold paths (core.Describe's probe reads what an algorithm sends) and tests;
// receive loops that decode at high rates hold a reusable Decoder instead.
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

// f64s decodes a count of at most max values and the values, into dst's
// storage when it has room (a Decoder's scratch).
func (d *decoder) f64s(dst []float64, max uint64) []float64 {
	n := d.length(max, 8)
	dst = dst[:0]
	if d.err == nil && n > 0 {
		if cap(dst) < n {
			dst = make([]float64, 0, n)
		}
		for i := 0; i < n; i++ {
			dst = append(dst, d.f64())
		}
	}
	return dst
}

// length decodes a uvarint element count. It rejects non-minimal varint
// encodings (keeping the wire format canonical: one byte sequence per
// message) and counts whose payload could not fit in the remaining input, so
// a corrupt length can never drive an allocation larger than the message
// itself. A report's epoch is read as a count of nothing (elemSize 0).
func (d *decoder) length(max uint64, elemSize int) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 || v > max || n != uvarintLen(v) {
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

// prog decodes a length-prefixed program as a view of the input: the single
// copy, if the receiver needs one, is the receiver's to make (the datapath
// parses an Install's at once). See Decoder for the rule.
func (d *decoder) prog() []byte {
	n := d.length(maxProgramSize, 1)
	if d.err != nil {
		return nil
	}
	d.pos += n
	return d.data[d.pos-n : d.pos]
}

// strInto decodes a length-prefixed string, returning prev unchanged when
// the wire bytes match it. A Decoder whose scratch element retains the
// previous decode's strings (flow identity fields repeat every snapshot and
// every resync Create) therefore reaches a zero-allocation steady state; the
// comparison itself does not allocate.
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

// appendStr appends each of ss behind its length byte.
func appendStr(b []byte, ss ...string) ([]byte, error) {
	for _, s := range ss {
		if len(s) > maxStringLen {
			return nil, fmt.Errorf("proto: string too long (%d)", len(s))
		}
		b = append(append(b, byte(len(s))), s...)
	}
	return b, nil
}

// appendProg appends a program behind its uvarint length.
func appendProg(b, prog []byte) ([]byte, error) {
	if len(prog) > maxProgramSize {
		return nil, fmt.Errorf("proto: program too large (%d bytes)", len(prog))
	}
	return append(binary.AppendUvarint(b, uint64(len(prog))), prog...), nil
}
