// Package proto defines the binary wire protocol spoken between CCP
// datapaths and the CCP agent (Figure 1's two arrows). It is deliberately
// narrow — the paper's thesis is that this small message set suffices for a
// wide range of congestion control algorithms:
//
//	datapath → agent: Create, Measurement, Urgent, Close, InstallErr
//	agent → datapath: Install, SetCwnd, SetRate
//
// Each Marshal produces exactly one self-contained frame (the transport
// adds its own length framing): a type byte, the message, and a CRC-32C
// (Castagnoli) of those bytes, 4 bytes little-endian. In the message, the
// SID, every sequence number and epoch and every other 32-bit integer
// (Create.MSS and InitCwnd, SetCwnd.Bytes) is a minimal uvarint, a float64 is
// its 8 IEEE 754 bytes little-endian, a string is a length byte and its
// bytes, and the last variable-length field (Measurement.Fields,
// Install.Prog, InstallErr.Prog, Snapshot.State) has no length: it runs to
// the check. The SID comes right after the type byte (after a Snapshot's
// version byte), where FrameSID reads it.
//
// Decoding is defensive. The check is verified before anything else, so a
// frame the channel changed is refused whole, whatever its body would decode
// to; every receiver refuses it with no code of its own. Beneath the check,
// lengths are bounded by both a fixed cap and the remaining input, varints
// must be minimal (one canonical encoding per message), and truncated or
// malformed input returns an error, never a panic.
//
// Control messages (Install, SetCwnd, SetRate) and datapath events (Create,
// Urgent) carry a per-flow sequence number so that an unreliable channel —
// one that reorders or duplicates messages — cannot regress a newer decision
// or double-count an urgent event. Seq 0 means "none": no sender stamps it
// and no receiver admits it. Both ends share one rule each way: a sender
// numbers with NextSeq, a receiver checks with AdmitSeq, and both compare
// with SeqNewer.
//
// What the datapath sends names the program it concerns: a Measurement the
// epoch of the program that folded it, an InstallErr the epoch and the whole
// program that stays in force.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	Seq   uint32 // urgent sequence number, per flow
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
	Seq  uint32 // control sequence number
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
	Seq   uint32 // control sequence number
	Bytes uint32
}

// SetRate directly sets the pacing rate (bytes/sec).
type SetRate struct {
	SID uint32
	Seq uint32 // control sequence number
	Bps float64
}

// SeqNewer reports whether sequence number a is newer than b under
// wraparound arithmetic (serial number comparison): a is newer when it lies
// at most 2^31-1 increments ahead of b.
func SeqNewer(a, b uint32) bool { return int32(a-b) > 0 }

// NextSeq advances the counter *last and returns the new sequence number,
// skipping 0 on wrap: 0 means none. Every sequence number a sender stamps
// comes from here.
func NextSeq(last *uint32) uint32 {
	*last++
	if *last == 0 {
		*last = 1
	}
	return *last
}

// AdmitSeq reports whether a received sequence number is fresh — newer than
// *last, the newest admitted so far, which it then becomes. A false result is
// a duplicated or reordered copy of something already superseded, or 0, which
// no sender stamps (SeqNewer alone would admit it past a cursor of 2^31).
// Every receiver checks sequence numbers here.
func AdmitSeq(seq uint32, last *uint32) bool {
	if seq == 0 || !SeqNewer(seq, *last) {
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

// Marshal encodes m as one self-contained frame.
//
//lint:testsupport the one-call encoder of the proto, runtime, harness, supervise, datapath and core tests and of the root and benchmark/ benchmarks
func Marshal(m Msg) ([]byte, error) {
	return AppendMarshal(nil, m)
}

// castagnoli is the CRC-32C table every frame's check is computed with (the
// standard library uses the CPU's CRC32 instruction for it where there is
// one).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkLen is the size of the check that ends every frame.
const checkLen = 4

// AppendMarshal encodes m as one frame, appending to dst: the message, then
// the CRC-32C of the message's bytes.
func AppendMarshal(dst []byte, m Msg) ([]byte, error) {
	b, err := appendMsg(append(dst, byte(m.Type())), m)
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(dst):], castagnoli)), nil
}

// appendMsg appends m's body, everything after its type byte but the check.
func appendMsg(b []byte, m Msg) ([]byte, error) {
	switch v := m.(type) {
	case *Create:
		b = appendU32s(b, v.SID, v.MSS, v.InitCwnd, v.Seq)
		return appendStr(b, v.SrcAddr, v.DstAddr, v.Alg)
	case *Measurement:
		if len(v.Fields) > maxFieldCount {
			return nil, fmt.Errorf("proto: too many fields (%d)", len(v.Fields))
		}
		return appendF64s(appendU32s(b, v.SID, v.Seq, v.Epoch), v.Fields...), nil
	case *Urgent:
		if v.Kind < UrgentDupAck || v.Kind > UrgentECN {
			return nil, fmt.Errorf("proto: invalid urgent kind %d", v.Kind)
		}
		b = append(appendU32s(b, v.SID, v.Seq), byte(v.Kind))
		return appendF64s(b, v.Value), nil
	case *Close:
		return appendU32s(b, v.SID), nil
	case *Install:
		if err := checkProg(v.Prog); err != nil {
			return nil, err
		}
		return append(appendU32s(b, v.SID, v.Seq), v.Prog...), nil
	case *SetCwnd:
		return appendU32s(b, v.SID, v.Seq, v.Bytes), nil
	case *SetRate:
		return appendF64s(appendU32s(b, v.SID, v.Seq), v.Bps), nil
	case *Snapshot:
		if len(v.State) > maxSnapStateLen {
			return nil, fmt.Errorf("proto: snapshot state too large (%d registers)", len(v.State))
		}
		if err := checkProg(v.Prog); err != nil {
			return nil, err
		}
		b = append(b, SnapshotVersion)
		b = append(appendU32s(b, v.SID), v.flags())
		b = appendU32s(b, v.MSS, v.InitCwnd, v.CtrlSeq, v.CreateSeq, v.ReportSeq, v.UrgentSeq, v.Epoch)
		var err error
		if b, err = appendStr(b, v.SrcAddr, v.DstAddr, v.Alg); err != nil {
			return nil, err
		}
		b = append(binary.AppendUvarint(b, uint64(len(v.Prog))), v.Prog...)
		return appendF64s(b, v.State...), nil
	case *Heartbeat:
		return appendF64s(appendU32s(b, v.SID, v.Seq), v.SentAt), nil
	case *InstallErr:
		if err := checkProg(v.Prog); err != nil {
			return nil, err
		}
		b, err := appendStr(appendU32s(b, v.SID, v.Seq, v.Epoch), v.Reason)
		if err != nil {
			return nil, err
		}
		return append(b, v.Prog...), nil
	}
	return nil, fmt.Errorf("proto: cannot marshal %T", m)
}

// Unmarshal decodes one message into freshly allocated structs, with one
// exception: programs alias data (see Decoder for the rule). It is for
// cold paths (core.Describe's probe reads what an algorithm sends) and tests;
// receive loops that decode at high rates hold a reusable Decoder instead.
func Unmarshal(data []byte) (Msg, error) {
	var dec Decoder
	return dec.Unmarshal(data)
}

// decoder reads one message's body: a frame without its check.
type decoder struct {
	data []byte
	pos  int
	err  error
}

var (
	errTruncated = errors.New("proto: truncated message")
	errVarint    = errors.New("proto: bad varint")
)

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errTruncated
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

// uvarint decodes a uvarint of at most max. It rejects non-minimal encodings,
// keeping the wire format canonical: one byte sequence per message.
func (d *decoder) uvarint(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 || v > max || n != uvarintLen(v) {
		d.err = errVarint
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) u32() uint32 { return uint32(d.uvarint(math.MaxUint32)) }

func (d *decoder) f64() float64 {
	if d.err != nil || d.pos+8 > len(d.data) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

// rest returns the bytes left before the check, at most max of them, as a
// view of the input: the last variable-length field of a message runs to its
// check and has no length of its own.
func (d *decoder) rest(max int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.data)-d.pos > max {
		d.err = fmt.Errorf("proto: %d bytes where at most %d fit", len(d.data)-d.pos, max)
		return nil
	}
	b := d.data[d.pos:]
	d.pos = len(d.data)
	return b
}

// f64sRest decodes the values that fill the rest of the message, at most max
// of them, into dst's storage when it has room (a Decoder's scratch).
func (d *decoder) f64sRest(dst []float64, max int) []float64 {
	b := d.rest(max * 8)
	dst = dst[:0]
	if len(b)%8 != 0 {
		d.fail()
		return dst
	}
	if n := len(b) / 8; n > 0 {
		if cap(dst) < n {
			dst = make([]float64, 0, n)
		}
		for i := 0; i < n; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
	return dst
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

// prog decodes a length-prefixed program (a Snapshot's, the one program
// that is not its message's last field) as a view of the input: the single
// copy, if the receiver needs one, is the receiver's to make. A length whose
// bytes the message does not hold is refused before anything is sliced. See
// Decoder for the rule.
func (d *decoder) prog() []byte {
	n := int(d.uvarint(maxProgramSize))
	if d.err != nil {
		return nil
	}
	if n > len(d.data)-d.pos {
		d.fail()
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

// appendU32s appends each of vs as a minimal uvarint.
func appendU32s(b []byte, vs ...uint32) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// appendF64s appends each of fs as its IEEE 754 bits, little-endian.
func appendF64s(b []byte, fs ...float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// checkProg bounds a program's size.
func checkProg(prog []byte) error {
	if len(prog) > maxProgramSize {
		return fmt.Errorf("proto: program too large (%d bytes)", len(prog))
	}
	return nil
}
