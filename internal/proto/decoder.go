package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Decoder decodes wire messages into reusable scratch storage, so a
// steady-state receive loop performs no heap allocation per message. The
// package-level Unmarshal is this with a throwaway Decoder; hot receive
// paths keep one Decoder per reader.
//
// Ownership rules:
//
//   - The message returned by Unmarshal — and everything reachable from it
//     (Measurement Fields, Snapshot State) — is valid only until the next
//     Unmarshal call on the same Decoder. Callers that need a message longer
//     keep a copy of the frame's bytes, or of the message by the codec round
//     trip (Marshal, then Unmarshal).
//   - Install.Prog, InstallErr.Prog and Snapshot.Prog alias the input buffer
//     (no copy on decode); they are additionally invalidated when it is
//     released or reused. Receivers either consume a program during dispatch
//     (the datapath parses an Install's at once) or copy it.
//   - A Decoder is not safe for concurrent use. One Decoder per reading
//     goroutine.
//
// A Decoder reused across messages may return empty (rather than nil)
// Fields/State slices where a fresh decode would return nil; callers must
// treat the two identically, as encoding does.
type Decoder struct {
	// One scratch message of each type, made the first time that type is
	// decoded: a frame is one message, so the next Unmarshal of a type
	// overwrites the last, slice capacity included.
	create  *Create
	meas    *Measurement
	urgent  *Urgent
	close   *Close
	install *Install
	cwnd    *SetCwnd
	rate    *SetRate
	snap    *Snapshot
	hb      *Heartbeat
	instErr *InstallErr
}

// scratch returns *p, making it on first use.
func scratch[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// Unmarshal decodes one frame into the decoder's scratch storage. It checks
// the frame's CRC-32C before it reads anything else, so a frame the wire
// changed is refused whole, whatever its body would decode to. The result is
// valid until the next Unmarshal on dec; see the type comment for the full
// ownership rules.
func (dec *Decoder) Unmarshal(data []byte) (Msg, error) {
	n := len(data) - checkLen // the message, the bytes before the check
	if n < 1 || binary.LittleEndian.Uint32(data[n:]) != crc32.Checksum(data[:n], castagnoli) {
		return nil, errCheck
	}
	d := decoder{data: data[:n]}
	m, err := dec.decode(&d)
	if err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("proto: %d trailing bytes after %s", len(d.data)-d.pos, m.Type())
	}
	return m, nil
}

var errCheck = errors.New("proto: frame fails its check")

// decode reads one message from d.
func (dec *Decoder) decode(d *decoder) (Msg, error) {
	t := MsgType(d.byte())
	switch t {
	case TypeCreate:
		v := scratch(&dec.create)
		v.SID, v.MSS, v.InitCwnd, v.Seq = d.u32(), d.u32(), d.u32(), d.u32()
		v.SrcAddr = d.strInto(v.SrcAddr)
		v.DstAddr = d.strInto(v.DstAddr)
		v.Alg = d.strInto(v.Alg)
		return v, nil
	case TypeMeasurement:
		v := scratch(&dec.meas)
		v.SID, v.Seq, v.Epoch = d.u32(), d.u32(), d.u32()
		v.Fields = d.f64sRest(v.Fields, maxFieldCount)
		return v, nil
	case TypeUrgent:
		v := scratch(&dec.urgent)
		v.SID, v.Seq, v.Kind, v.Value = d.u32(), d.u32(), UrgentKind(d.byte()), d.f64()
		if d.err == nil && (v.Kind < UrgentDupAck || v.Kind > UrgentECN) {
			return nil, fmt.Errorf("proto: invalid urgent kind %d", v.Kind)
		}
		return v, nil
	case TypeClose:
		v := scratch(&dec.close)
		v.SID = d.u32()
		return v, nil
	case TypeInstall:
		v := scratch(&dec.install)
		v.SID, v.Seq, v.Prog = d.u32(), d.u32(), d.rest(maxProgramSize)
		return v, nil
	case TypeSetCwnd:
		v := scratch(&dec.cwnd)
		v.SID, v.Seq, v.Bytes = d.u32(), d.u32(), d.u32()
		return v, nil
	case TypeSetRate:
		v := scratch(&dec.rate)
		v.SID, v.Seq, v.Bps = d.u32(), d.u32(), d.f64()
		return v, nil
	case TypeSnapshot:
		v := scratch(&dec.snap)
		if ver := d.byte(); d.err == nil && ver != SnapshotVersion {
			return nil, fmt.Errorf("proto: unsupported snapshot version %d", ver)
		}
		v.SID = d.u32()
		fl := d.byte()
		if d.err == nil && fl&^snapFlagClosed != 0 {
			return nil, fmt.Errorf("proto: unknown snapshot flags %#x", fl)
		}
		v.Closed = fl&snapFlagClosed != 0
		v.MSS, v.InitCwnd = d.u32(), d.u32()
		v.CtrlSeq, v.CreateSeq = d.u32(), d.u32()
		v.ReportSeq, v.UrgentSeq = d.u32(), d.u32()
		v.Epoch = d.u32()
		v.SrcAddr = d.strInto(v.SrcAddr)
		v.DstAddr = d.strInto(v.DstAddr)
		v.Alg = d.strInto(v.Alg)
		v.Prog = d.prog()
		v.State = d.f64sRest(v.State, maxSnapStateLen)
		return v, nil
	case TypeHeartbeat:
		v := scratch(&dec.hb)
		v.SID, v.Seq, v.SentAt = d.u32(), d.u32(), d.f64()
		return v, nil
	case TypeInstallErr:
		v := scratch(&dec.instErr)
		v.SID, v.Seq, v.Epoch = d.u32(), d.u32(), d.u32()
		v.Reason, v.Prog = d.strInto(v.Reason), d.rest(maxProgramSize)
		return v, nil
	}
	return nil, fmt.Errorf("proto: unknown message type %d", t)
}
