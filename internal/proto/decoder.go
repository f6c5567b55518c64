package proto

import "fmt"

// Decoder decodes wire messages into reusable scratch storage, so a
// steady-state receive loop performs no heap allocation per message. The
// package-level Unmarshal is this with a throwaway Decoder; hot receive
// paths keep one Decoder per reader.
//
// Ownership rules:
//
//   - The message returned by Unmarshal — and everything reachable from it
//     (Report Fields, Vector Data) — is valid only until the next Unmarshal
//     call on the same Decoder. Callers that need a message longer must
//     Clone it.
//   - Install.Prog aliases the input buffer (no copy on decode); it is
//     additionally invalidated when the input buffer is released or reused.
//     Receivers either consume the program during dispatch (the datapath
//     parses it immediately) or copy it.
//   - A Decoder is not safe for concurrent use. One Decoder per reading
//     goroutine.
//
// A Decoder reused across messages may return empty (rather than nil)
// Fields/Data slices where a fresh decode would return nil; callers must
// treat the two identically, as encoding does.
type Decoder struct {
	// One scratch message of each type, made the first time that type is
	// decoded: a frame is one message, so the next Unmarshal of a type
	// overwrites the last, slice capacity included.
	create  *Create
	meas    *Measurement
	vec     *Vector
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

// Unmarshal decodes one message into the decoder's scratch storage. The
// result is valid until the next Unmarshal on dec; see the type comment for
// the full ownership rules.
func (dec *Decoder) Unmarshal(data []byte) (Msg, error) {
	d := decoder{data: data}
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

// decode reads one message from d.
func (dec *Decoder) decode(d *decoder) (Msg, error) {
	t := MsgType(d.byte())
	switch t {
	case TypeCreate:
		v := scratch(&dec.create)
		v.SID, v.MSS, v.InitCwnd, v.Seq = d.u32(), d.u32(), d.u32(), d.u32()
		v.SrcAddr = d.str()
		v.DstAddr = d.str()
		v.Alg = d.str()
		return v, nil
	case TypeMeasurement:
		v := scratch(&dec.meas)
		v.SID, v.Seq = d.u32(), d.u32()
		n := d.length(maxFieldCount, 8)
		v.Fields = v.Fields[:0]
		if d.err == nil && n > 0 {
			if cap(v.Fields) < n {
				v.Fields = make([]float64, 0, n)
			}
			for i := 0; i < n; i++ {
				v.Fields = append(v.Fields, d.f64())
			}
		}
		return v, nil
	case TypeVector:
		v := scratch(&dec.vec)
		v.SID, v.Seq, v.NumFields = d.u32(), d.u32(), d.byte()
		n := d.length(maxVectorLen, 8)
		v.Data = v.Data[:0]
		if d.err == nil {
			if v.NumFields == 0 || n%int(v.NumFields) != 0 {
				return nil, fmt.Errorf("proto: vector shape %d x %d invalid", n, v.NumFields)
			}
			if cap(v.Data) < n {
				v.Data = make([]float64, 0, n)
			}
			for i := 0; i < n; i++ {
				v.Data = append(v.Data, d.f64())
			}
		}
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
		v.SID, v.Seq = d.u32(), d.u32()
		n := d.length(maxProgramSize, 1)
		// Aliases the input: the single copy, if the receiver needs one, is
		// the receiver's to make (most parse the program immediately).
		v.Prog = d.view(n)
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
		if d.err == nil && fl&^(snapFlagClosed|snapFlagInstalled) != 0 {
			return nil, fmt.Errorf("proto: unknown snapshot flags %#x", fl)
		}
		v.Closed = fl&snapFlagClosed != 0
		v.Installed = fl&snapFlagInstalled != 0
		v.MSS, v.InitCwnd = d.u32(), d.u32()
		v.CtrlSeq, v.CreateSeq = d.u32(), d.u32()
		v.ReportSeq, v.UrgentSeq = d.u32(), d.u32()
		v.SrcAddr = d.strInto(v.SrcAddr)
		v.DstAddr = d.strInto(v.DstAddr)
		v.Alg = d.strInto(v.Alg)
		n := d.length(maxProgramSize, 1)
		// Aliases the input, matching the Install.Prog rule.
		v.Prog = d.view(n)
		n = d.length(maxSnapStateLen, 8)
		v.State = v.State[:0]
		if d.err == nil && n > 0 {
			if cap(v.State) < n {
				v.State = make([]float64, 0, n)
			}
			for i := 0; i < n; i++ {
				v.State = append(v.State, d.f64())
			}
		}
		return v, nil
	case TypeHeartbeat:
		v := scratch(&dec.hb)
		v.SID, v.Seq, v.SentAt = d.u32(), d.u32(), d.f64()
		return v, nil
	case TypeInstallErr:
		v := scratch(&dec.instErr)
		v.SID, v.Seq = d.u32(), d.u32()
		v.Reason = d.strInto(v.Reason)
		return v, nil
	}
	return nil, fmt.Errorf("proto: unknown message type %d", t)
}
