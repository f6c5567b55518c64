package proto

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMsgs() []Msg {
	return []Msg{
		&Create{SID: 7, MSS: 1460, InitCwnd: 14600, SrcAddr: "10.0.0.1:4242", DstAddr: "10.0.0.2:80", Alg: "cubic"},
		&Create{SID: 0},
		&Create{SID: 11, MSS: 1448, InitCwnd: 28960, Seq: 1042, Alg: "reno"}, // resync replay
		&Measurement{SID: 1, Seq: 99, Fields: []float64{0.01, 2.5e6, 1.25e6, 14600, 0, 0.25, 0.012}},
		&Measurement{SID: 2, Seq: 0, Fields: nil},
		&Vector{SID: 3, Seq: 5, NumFields: 3, Data: []float64{1, 2, 3, 4, 5, 6}},
		&Urgent{SID: 4, Seq: 1, Kind: UrgentDupAck, Value: 2920},
		&Urgent{SID: 4, Seq: 2, Kind: UrgentTimeout, Value: 14600},
		&Urgent{SID: 4, Kind: UrgentECN, Value: 3},
		&Close{SID: 5},
		&Install{SID: 6, Seq: 3, Prog: []byte{0xCC, 2, 0, 1, 0x14, 0}},
		&Install{SID: 6, Prog: nil},
		&SetCwnd{SID: 8, Seq: 7, Bytes: 29200},
		&SetRate{SID: 9, Seq: 8, Bps: 1.25e9},
		&Snapshot{SID: 12, Installed: true, MSS: 1448, InitCwnd: 14480,
			CtrlSeq: 77, CreateSeq: 3, ReportSeq: 200, UrgentSeq: 5,
			SrcAddr: "10.0.0.1:4242", DstAddr: "10.0.0.2:80", Alg: "cubic",
			Prog:  []byte{0xCC, 2, 0, 1, 0x14, 0},
			State: []float64{14480, 65535, 2.5, 0.01}},
		&Snapshot{SID: 13, Closed: true},
		&Heartbeat{SID: 0, Seq: 9, SentAt: 1.25},
		&InstallErr{SID: 14, Seq: 41, Reason: "verifier: rate write escapes [0, 1e12]"},
		&InstallErr{SID: 15},
	}
}

// retiredFrames are frames of the two retired wire types as a peer that
// still sent them encoded them: type 9, a report batch (a uvarint count, then
// each message behind its uvarint length), and type 10, an overload backoff
// (the SID, then a float64 report-interval factor).
func retiredFrames() [][]byte {
	batch := []byte{9, 2}
	for _, m := range []Msg{
		&Measurement{SID: 1, Seq: 100, Fields: []float64{0.01, 1e6}},
		&Urgent{SID: 1, Seq: 9, Kind: UrgentDupAck, Value: 1448},
	} {
		sub, err := Marshal(m)
		if err != nil {
			panic(err)
		}
		batch = append(binary.AppendUvarint(batch, uint64(len(sub))), sub...)
	}
	backoff := func(factor float64) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{10}, 10)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(factor))
	}
	return [][]byte{batch, {9, 0}, backoff(4), backoff(1)}
}

// TestWireTypeNumbers pins each message type's byte on the wire, and that
// the bytes of the two retired types are refused as unknown whatever follows
// them: a corrupted frame that starts with 9 or 10 must not decode.
func TestWireTypeNumbers(t *testing.T) {
	for _, c := range []struct {
		m    Msg
		want byte
	}{
		{&Create{}, 1}, {&Measurement{}, 2}, {&Vector{NumFields: 1}, 3},
		{&Urgent{Kind: UrgentDupAck}, 4}, {&Close{}, 5}, {&Install{}, 6},
		{&SetCwnd{}, 7}, {&SetRate{}, 8}, {&Snapshot{}, 11},
		{&Heartbeat{}, 12}, {&InstallErr{}, 13},
	} {
		data, err := Marshal(c.m)
		if err != nil {
			t.Fatalf("%T: %v", c.m, err)
		}
		if data[0] != c.want {
			t.Errorf("%T is type byte %d on the wire, want %d", c.m, data[0], c.want)
		}
		if got, err := Unmarshal(data); err != nil || got.Type() != c.m.Type() {
			t.Errorf("type byte %d decodes as %v (err %v), want %v", c.want, got, err, c.m.Type())
		}
	}
	for _, frame := range append(retiredFrames(), []byte{9}, []byte{10}) {
		if _, err := Unmarshal(frame); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Errorf("retired frame %x: err=%v, want an unknown message type", frame, err)
		}
	}
}

func TestSplit(t *testing.T) {
	m := &Close{SID: 1}
	if got := Split(m); len(got) != 1 || got[0] != Msg(m) {
		t.Fatalf("Split(m)=%v, want [m]", got)
	}
}

func TestRoundTripAll(t *testing.T) {
	for _, m := range sampleMsgs() {
		data, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		// nil and empty slices compare unequal under DeepEqual; normalize.
		if v, ok := got.(*Measurement); ok && len(v.Fields) == 0 {
			v.Fields = nil
		}
		if v, ok := got.(*Install); ok && len(v.Prog) == 0 {
			v.Prog = nil
		}
		if v, ok := got.(*Snapshot); ok {
			if len(v.Prog) == 0 {
				v.Prog = nil
			}
			if len(v.State) == 0 {
				v.State = nil
			}
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mismatch:\n in:  %#v\n out: %#v", m, got)
		}
	}
}

func TestTypeAndSID(t *testing.T) {
	wantTypes := []MsgType{
		TypeCreate, TypeCreate, TypeCreate, TypeMeasurement, TypeMeasurement,
		TypeVector, TypeUrgent, TypeUrgent, TypeUrgent, TypeClose, TypeInstall,
		TypeInstall, TypeSetCwnd, TypeSetRate, TypeSnapshot, TypeSnapshot,
		TypeHeartbeat, TypeInstallErr, TypeInstallErr,
	}
	for i, m := range sampleMsgs() {
		if m.Type() != wantTypes[i] {
			t.Errorf("msg %d: type=%v, want %v", i, m.Type(), wantTypes[i])
		}
	}
	if (&SetRate{SID: 42}).FlowSID() != 42 {
		t.Error("FlowSID wrong")
	}
}

func TestVectorRows(t *testing.T) {
	v := &Vector{NumFields: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	if v.Rows() != 2 {
		t.Fatalf("rows=%d", v.Rows())
	}
	r := v.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("row=%v", r)
	}
	empty := &Vector{}
	if empty.Rows() != 0 {
		t.Fatal("empty vector rows != 0")
	}
}

func TestMarshalRejectsBadVectorShape(t *testing.T) {
	if _, err := Marshal(&Vector{NumFields: 3, Data: []float64{1, 2}}); err == nil {
		t.Fatal("ragged vector marshalled")
	}
	if _, err := Marshal(&Vector{NumFields: 0, Data: []float64{1}}); err == nil {
		t.Fatal("zero-field vector marshalled")
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	big := make([]float64, maxFieldCount+1)
	if _, err := Marshal(&Measurement{Fields: big}); err == nil {
		t.Fatal("oversized measurement marshalled")
	}
	bigProg := make([]byte, maxProgramSize+1)
	if _, err := Marshal(&Install{Prog: bigProg}); err == nil {
		t.Fatal("oversized program marshalled")
	}
	long := make([]byte, 300)
	if _, err := Marshal(&Create{SrcAddr: string(long)}); err == nil {
		t.Fatal("oversized string marshalled")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                         // type 0 invalid
		{200},                       // unknown type
		{byte(TypeCreate)},          // truncated
		{byte(TypeSetCwnd), 1, 2},   // truncated u32
		{byte(TypeUrgent), 1, 2, 3}, // truncated
	}
	for _, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("Unmarshal(%v) succeeded", data)
		}
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	// An Install claiming more program bytes than the message holds must be
	// rejected before allocating, and a non-minimal varint length must not
	// decode (the encoding is canonical).
	hdr := []byte{byte(TypeInstall), 6, 0, 0, 0, 0, 0, 0, 0} // SID=6, Seq=0
	overclaim := append(append([]byte{}, hdr...), 0xFF, 0xFF, 0x03)
	if _, err := Unmarshal(overclaim); err == nil {
		t.Fatal("length beyond input accepted")
	}
	nonMinimal := append(append([]byte{}, hdr...), 0x81, 0x00, 0xCC) // len=1 in two bytes
	if _, err := Unmarshal(nonMinimal); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
	minimal := append(append([]byte{}, hdr...), 0x01, 0xCC)
	if _, err := Unmarshal(minimal); err != nil {
		t.Fatalf("minimal encoding rejected: %v", err)
	}
	// An Urgent with an out-of-range kind is not a valid message.
	badKind, err := Marshal(&Urgent{SID: 1, Kind: UrgentDupAck})
	if err != nil {
		t.Fatal(err)
	}
	badKind[9] = 200 // kind byte follows SID+Seq
	if _, err := Unmarshal(badKind); err == nil {
		t.Fatal("invalid urgent kind accepted")
	}
	if _, err := Marshal(&Urgent{SID: 1, Kind: UrgentKind(99)}); err == nil {
		t.Fatal("invalid urgent kind marshalled")
	}
}

func TestSeqNewer(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{1, 1, false},
		{1, 0xFFFFFFFF, true},  // wraparound: 1 is newer than 2^32-1
		{0xFFFFFFFF, 1, false}, // and not vice versa
		{0x80000001, 1, false}, // half the space or more ahead: treated stale
	}
	for _, c := range cases {
		if got := SeqNewer(c.a, c.b); got != c.want {
			t.Errorf("SeqNewer(%d, %d)=%v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUnmarshalTrailing(t *testing.T) {
	data, err := Marshal(&Close{SID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(data, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestUnmarshalFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bases := sampleMsgs()
	for trial := 0; trial < 3000; trial++ {
		base, err := Marshal(bases[rng.Intn(len(bases))])
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 1+rng.Intn(5); k++ {
			base[rng.Intn(len(base))] = byte(rng.Intn(256))
		}
		if rng.Intn(3) == 0 {
			base = base[:rng.Intn(len(base)+1)]
		}
		_, _ = Unmarshal(base) // must not panic
	}
}

func TestQuickMeasurementRoundTrip(t *testing.T) {
	f := func(sid, seq uint32, fields []float64) bool {
		if len(fields) > maxFieldCount {
			return true
		}
		m := &Measurement{SID: sid, Seq: seq, Fields: fields}
		data, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		gm := got.(*Measurement)
		if gm.SID != sid || gm.Seq != seq || len(gm.Fields) != len(fields) {
			return false
		}
		for i := range fields {
			// NaN != NaN; compare bit patterns via equality on both-NaN.
			if gm.Fields[i] != fields[i] && !(fields[i] != fields[i] && gm.Fields[i] != gm.Fields[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendMarshalAppends(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	out, err := AppendMarshal(prefix, &Close{SID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAA || out[1] != 0xBB {
		t.Fatal("prefix clobbered")
	}
	if _, err := Unmarshal(out[2:]); err != nil {
		t.Fatal(err)
	}
}

func TestStringNames(t *testing.T) {
	if TypeMeasurement.String() != "Measurement" || UrgentTimeout.String() != "timeout" {
		t.Fatal("String names wrong")
	}
	if MsgType(99).String() == "" || UrgentKind(99).String() == "" {
		t.Fatal("unknown values should still format")
	}
}
