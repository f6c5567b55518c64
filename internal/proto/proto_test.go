package proto

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleMsgs() []Msg {
	return []Msg{
		&Create{SID: 7, MSS: 1460, InitCwnd: 14600, SrcAddr: "10.0.0.1:4242", DstAddr: "10.0.0.2:80", Alg: "cubic"},
		&Create{SID: 0},
		&Create{SID: 11, MSS: 1448, InitCwnd: 28960, Seq: 1042, Alg: "reno"}, // resync replay
		&Measurement{SID: 1, Seq: 99, Fields: []float64{0.01, 2.5e6, 1.25e6, 14600, 0, 0.25, 0.012}},
		&Measurement{SID: 2, Seq: 0, Fields: nil},
		&Measurement{SID: 1, Seq: 100, Epoch: 12, Fields: []float64{14480, 0.01, 3.5}},  // a three-register fold's
		&Measurement{SID: 3, Seq: 5, Epoch: 70000, Fields: []float64{1, 2, 3, 4, 5, 6}}, // two rows of three
		&Urgent{SID: 4, Seq: 1, Kind: UrgentDupAck, Value: 2920},
		&Urgent{SID: 4, Seq: 2, Kind: UrgentTimeout, Value: 14600},
		&Urgent{SID: 4, Kind: UrgentECN, Value: 3},
		&Close{SID: 5},
		&Install{SID: 6, Seq: 3, Prog: []byte{0xCC, 2, 0, 1, 0x14, 0}},
		&Install{SID: 6, Prog: nil},
		&SetCwnd{SID: 8, Seq: 7, Bytes: 29200},
		&SetRate{SID: 9, Seq: 8, Bps: 1.25e9},
		&Snapshot{SID: 12, MSS: 1448, InitCwnd: 14480,
			CtrlSeq: 77, CreateSeq: 3, ReportSeq: 200, UrgentSeq: 5, Epoch: 75,
			SrcAddr: "10.0.0.1:4242", DstAddr: "10.0.0.2:80", Alg: "cubic",
			Prog:  []byte{0xCC, 2, 0, 1, 0x14, 0},
			State: []float64{14480, 65535, 2.5, 0.01}},
		&Snapshot{SID: 13, Closed: true},
		&Heartbeat{SID: 0, Seq: 9, SentAt: 1.25},
		&InstallErr{SID: 14, Seq: 41, Reason: "verifier: rate write escapes [0, 1e12]"},
		&InstallErr{SID: 15},
		&InstallErr{SID: 16, Seq: 42, Epoch: 300, Reason: "datapath: install refers to the measure half of epoch 40",
			Prog: []byte{0xCC, 2, 0, 1, 0x14, 0}}, // the program in force, as a refusal names it
	}
}

// retiredFrames are frames of the three retired wire types as a peer that
// still sent them encoded them: type 3, a vector report (SID, Seq, a row-width
// byte, then a uvarint count of float64s), type 9, a report batch (a uvarint
// count, then each message behind its uvarint length), and type 10, an
// overload backoff (the SID, then a float64 report-interval factor).
func retiredFrames() [][]byte {
	vector := binary.LittleEndian.AppendUint32([]byte{3}, 3)
	vector = binary.LittleEndian.AppendUint32(vector, 5)
	vector = append(vector, 2, 2)
	for _, f := range []float64{0.01, 1448} {
		vector = binary.LittleEndian.AppendUint64(vector, math.Float64bits(f))
	}
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
	return [][]byte{vector, batch, {9, 0}, backoff(4), backoff(1)}
}

// TestWireTypeNumbers pins each message type's byte on the wire, and that
// the bytes of the three retired types are refused as unknown whatever
// follows them: a corrupted frame that starts with 3, 9 or 10 must not
// decode.
func TestWireTypeNumbers(t *testing.T) {
	for _, c := range []struct {
		m    Msg
		want byte
	}{
		{&Create{}, 1}, {&Measurement{}, 2},
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
	for _, frame := range append(retiredFrames(), []byte{3}, []byte{9}, []byte{10}) {
		if _, err := Unmarshal(frame); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Errorf("retired frame %x: err=%v, want an unknown message type", frame, err)
		}
	}
}

// TestSnapshotVersionAndFlags pins the snapshot's version byte at 3 and its
// one flag bit, Closed: a frame of another version, or one that sets any
// other flag bit — version 1's retired "installed" bit among them — is
// refused, not half-understood.
func TestSnapshotVersionAndFlags(t *testing.T) {
	const versionAt, flagsAt = 1, 6 // after the type byte; after the version and the SID
	for _, m := range []*Snapshot{
		{SID: 12, MSS: 1448, Alg: "cubic", Prog: []byte{0xCC, 2, 0, 1, 0x14, 0}},
		{SID: 13, Closed: true},
	} {
		data, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if data[versionAt] != 3 || data[flagsAt] != m.flags() {
			t.Fatalf("snapshot %d: version %d, flags %#x on the wire", m.SID, data[versionAt], data[flagsAt])
		}
		for _, v := range []byte{0, 1, 2, 4} {
			bad := bytes.Clone(data)
			bad[versionAt] = v
			if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "snapshot version") {
				t.Errorf("snapshot %d as version %d: err=%v, want a refusal", m.SID, v, err)
			}
		}
		for bit := 1; bit < 8; bit++ {
			bad := bytes.Clone(data)
			bad[flagsAt] |= 1 << bit
			if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "unknown snapshot flags") {
				t.Errorf("snapshot %d with flag bit %d: err=%v, want a refusal", m.SID, bit, err)
			}
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
		if v, ok := got.(*InstallErr); ok && len(v.Prog) == 0 {
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
		TypeMeasurement, TypeMeasurement, TypeUrgent, TypeUrgent, TypeUrgent, TypeClose, TypeInstall,
		TypeInstall, TypeSetCwnd, TypeSetRate, TypeSnapshot, TypeSnapshot,
		TypeHeartbeat, TypeInstallErr, TypeInstallErr, TypeInstallErr,
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

// TestVectorRows: a vector-mode report is a Measurement whose Fields are its
// rows, row-major. Nothing on the wire says how wide a row is — the epoch
// names the program whose field list does — so the frame is the header, the
// epoch as a minimal uvarint, the value count and the values.
func TestVectorRows(t *testing.T) {
	for _, c := range []struct {
		epoch uint32
		width int // of the epoch's uvarint
	}{{0, 1}, {127, 1}, {128, 2}, {70000, 3}, {math.MaxUint32, 5}} {
		m := &Measurement{SID: 3, Seq: 5, Epoch: c.epoch, Fields: []float64{1, 2, 3, 4, 5, 6}}
		data, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 + 4 + 4 + c.width + 1 + 6*8; len(data) != want {
			t.Fatalf("epoch %d: a two-by-three report is %d bytes, want %d", c.epoch, len(data), want)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if g := got.(*Measurement); g.Epoch != c.epoch || !reflect.DeepEqual(g.Fields, m.Fields) {
			t.Fatalf("epoch %d: decoded %+v", c.epoch, g)
		}
	}
}

// TestMarshalRejectsBadVectorShape: the codec cannot know a report's shape,
// so it bounds what it can — the value count, and the epoch, which must be a
// minimal uvarint that fits 32 bits. Whether a report's values fit its
// epoch's layout is the agent's check (core).
func TestMarshalRejectsBadVectorShape(t *testing.T) {
	if _, err := Marshal(&Measurement{Fields: make([]float64, maxFieldCount+1)}); err == nil {
		t.Fatal("a report of more than maxFieldCount values marshalled")
	}
	frame := func(epoch ...byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{byte(TypeMeasurement)}, 3)
		b = binary.LittleEndian.AppendUint32(b, 5)
		return append(append(b, epoch...), 0) // no values
	}
	if _, err := Unmarshal(frame(0x81, 0x01)); err != nil {
		t.Fatalf("epoch 129: %v", err)
	}
	for _, bad := range [][]byte{
		{0x80, 0x00},                   // 0, not minimal
		{0x81, 0x81, 0x00},             // 129, not minimal
		{0x80, 0x80, 0x80, 0x80, 0x10}, // 2^32
		{0x80},                         // truncated
	} {
		if _, err := Unmarshal(frame(bad...)); err == nil {
			t.Errorf("epoch % x decoded", bad)
		}
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

func TestNextSeqSkipsZeroOnWrap(t *testing.T) {
	last := ^uint32(0) - 1
	if s := NextSeq(&last); s != ^uint32(0) {
		t.Fatalf("seq=%d", s)
	}
	if s := NextSeq(&last); s != 1 || last != 1 {
		t.Fatalf("seq after wrap=%d (counter %d), want 1 (0 means none)", s, last)
	}
}

func TestStaleSeqWraparound(t *testing.T) {
	last := ^uint32(0)
	if !AdmitSeq(1, &last) {
		t.Fatal("wrapped seq 1 treated as stale after 2^32-1")
	}
	if last != 1 {
		t.Fatalf("last=%d after wrap, want 1", last)
	}
	if AdmitSeq(^uint32(0), &last) || AdmitSeq(1, &last) {
		t.Fatal("replayed seq accepted after the wrap")
	}
	if AdmitSeq(0, &last) || last != 1 {
		t.Fatal("seq 0 admitted after the wrap")
	}
}

// TestAdmitSeqRefusesZero: 0 is no sender's sequence number, so it is refused
// at every cursor, including those 2^31 or more ahead of it, where SeqNewer
// alone would call it newer.
func TestAdmitSeqRefusesZero(t *testing.T) {
	for _, c := range []uint32{0, 1, 1<<31 - 1, 1 << 31, 0x9000_0000, 0xFFFF_FFFF} {
		last := c
		if AdmitSeq(0, &last) || last != c {
			t.Errorf("AdmitSeq(0, &%#x) admitted it or moved the cursor to %#x", c, last)
		}
	}
}

// TestProbeScore drives the heartbeat health score through each of its rules,
// with a limit of 200 ms.
func TestProbeScore(t *testing.T) {
	const limit = 0.2
	ms := time.Millisecond
	probe := func(t *testing.T, p *ProbeScore, at time.Duration, wantSeq uint32, wantMissed bool) {
		t.Helper()
		if seq, missed := p.Probe(at, limit); seq != wantSeq || missed != wantMissed {
			t.Fatalf("Probe(%v) = %d, missed %v; want %d, missed %v", at, seq, missed, wantSeq, wantMissed)
		}
	}
	cases := []struct {
		name        string
		start       ProbeScore
		run         func(t *testing.T, p *ProbeScore)
		score       float64
		scored      bool
		outstanding bool
	}{
		{"unscored before any sample", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			probe(t, p, 0, 1, false)
		}, 0, false, true},
		{"the first sample seeds the score", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			probe(t, p, 0, 1, false)
			p.Echo(1, 0.05, limit)
		}, 0.05, true, false},
		{"a later sample moves it by the gain", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			p.Echo(1, 0.05, limit)
			p.Echo(2, 0.15, limit)
		}, 0.7*0.05 + 0.3*0.15, true, false},
		{"a negative sample clamps to zero", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			p.Echo(1, -1, limit)
		}, 0, true, false},
		{"an over-limit sample clamps to the limit", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			p.Echo(1, 5, limit)
		}, limit, true, false},
		{"an unanswered probe's age folds in at each later probe", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			probe(t, p, 0, 1, false)
			probe(t, p, 10*ms, 2, true)
			probe(t, p, 30*ms, 3, true)
		}, 0.7*0.01 + 0.3*0.03, true, true},
		{"an unanswered probe's age clamps too", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			probe(t, p, 0, 1, false)
			probe(t, p, time.Minute, 2, true)
		}, limit, true, true},
		{"an echo of a later probe answers the outstanding one", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			probe(t, p, 0, 1, false)
			probe(t, p, 10*ms, 2, true)
			p.Echo(2, 0.001, limit)
			probe(t, p, 20*ms, 3, false)
			p.Echo(3, 0.001, limit)
		}, 0.7*(0.7*0.01+0.3*0.001) + 0.3*0.001, true, false},
		{"an echo of an older probe does not", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			probe(t, p, 0, 1, false)
			p.Echo(1, 0, limit)
			probe(t, p, 10*ms, 2, false)
			p.Echo(1, 0, limit)
			probe(t, p, 20*ms, 3, true)
		}, 0.3 * 0.01, true, true},
		{"numbering skips zero on wrap", ProbeScore{seq: ^uint32(0) - 1}, func(t *testing.T, p *ProbeScore) {
			probe(t, p, 0, ^uint32(0), false)
			probe(t, p, 10*ms, 1, true)
			p.Echo(1, 0.01, limit)
		}, 0.01, true, false},
		{"Reset forgets the score and the probes but keeps numbering", ProbeScore{}, func(t *testing.T, p *ProbeScore) {
			probe(t, p, 0, 1, false)
			probe(t, p, 10*ms, 2, true)
			p.Reset()
			if _, scored := p.Score(); scored || p.Outstanding() {
				t.Fatal("Reset kept the score or the outstanding probe")
			}
			probe(t, p, 20*ms, 3, false)
		}, 0, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.start
			c.run(t, &p)
			score, scored := p.Score()
			if math.Abs(score-c.score) > 1e-12 || scored != c.scored || p.Outstanding() != c.outstanding {
				t.Fatalf("score %v (scored %v), outstanding %v; want %v (scored %v), outstanding %v",
					score, scored, p.Outstanding(), c.score, c.scored, c.outstanding)
			}
		})
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
	f := func(sid, seq, epoch uint32, fields []float64) bool {
		if len(fields) > maxFieldCount {
			return true
		}
		m := &Measurement{SID: sid, Seq: seq, Epoch: epoch, Fields: fields}
		data, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		gm := got.(*Measurement)
		if gm.SID != sid || gm.Seq != seq || gm.Epoch != epoch || len(gm.Fields) != len(fields) {
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
