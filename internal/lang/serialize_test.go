package lang

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func testPrograms(t *testing.T) []*Program {
	t.Helper()
	vegas, err := NewProgram().
		MeasureFold(vegasFold()).
		Cwnd(Add(V("cwnd"), Mul(V("delta"), V("mss")))).
		WaitRtts(1).Report().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	vector, err := NewProgram().
		MeasureVector(FieldRTT, FieldAcked, FieldECN).
		UrgentECN().
		Cwnd(V("cwnd")).WaitRtts(1).Report().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return []*Program{bbrProgram(t), vegas, vector}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, p := range testPrograms(t) {
		data, err := MarshalProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		got, err := UnmarshalProgram(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("round trip mismatch:\n  in:  %s\n  out: %s", p, got)
		}
		// Re-marshal must be byte-identical (canonical encoding).
		data2, err := MarshalProgram(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatal("encoding not canonical")
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{progMagic},
		{progMagic, 99},                         // bad version
		{progMagic, 1, 0, 1, instrTagReport, 0}, // a whole program in format version 1
		{progMagic, progVersion, 77},            // bad mode
		{progMagic, progVersion, 0},             // truncated after mode
		{progMagic, progVersion, 0, 1, instrTagRate}, // truncated expr
		{progMagic, progVersion, 0, 1, 0xEE, 0},      // bad instr tag
	}
	for _, data := range cases {
		if _, err := UnmarshalProgram(data); err == nil {
			t.Errorf("UnmarshalProgram(%v) succeeded", data)
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	data, err := MarshalProgram(bbrProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalProgram(append(data, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestUnmarshalFuzzNoPanic(t *testing.T) {
	// Random mutations of a valid encoding must never panic; errors are fine.
	base, err := MarshalProgram(testPrograms(t)[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		data := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			data[rng.Intn(len(data))] = byte(rng.Intn(256))
		}
		if rng.Intn(3) == 0 {
			data = data[:rng.Intn(len(data))]
		}
		p, err := UnmarshalProgram(data)
		if err == nil {
			// A lucky mutation may decode; it must then be valid.
			if verr := p.Validate(); verr != nil {
				t.Fatalf("decoded invalid program: %v", verr)
			}
		}
	}
}

func TestUnmarshalDepthLimit(t *testing.T) {
	// Construct a deeply nested expression exceeding maxExprDepth.
	e := Expr(C(1))
	for i := 0; i < maxExprDepth+10; i++ {
		e = Add(e, C(1))
	}
	p, err := NewProgram().Rate(e).Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalProgram(data); err == nil {
		t.Fatal("over-deep expression accepted")
	}
}

func TestMarshalRejectsNilExpr(t *testing.T) {
	p := &Program{Instrs: []Instr{SetRate{}}}
	if _, err := MarshalProgram(p); err == nil {
		t.Fatal("nil expression marshalled")
	}
}

func TestMarshalRejectsLongName(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	p := &Program{
		Measure: MeasureSpec{Mode: MeasureFold, Fold: &FoldSpec{
			Regs: []RegDef{{Name: string(long)}},
		}},
	}
	if _, err := MarshalProgram(p); err == nil {
		t.Fatal("over-long name marshalled")
	}
}

// TestReferenceForm pins the by-reference form (MeasureRef): header, mode 3,
// the epoch as a minimal uvarint, then an ordinary control half. The bytes are
// literals where they pin the format. Stand-alone it is a program like any
// other — it decodes, validates against the built-in variables, prints, and
// re-encodes to itself — and its measure half is self-delimiting like the
// rest, so the halves decode separately too.
func TestReferenceForm(t *testing.T) {
	ctrl := []byte{3, instrTagCwnd, exprTagSmall, 200, instrTagWaitRtts, exprTagSmall, 1, instrTagReport, 0}
	for _, tc := range []struct {
		epoch  uint32
		prefix []byte
	}{
		{1, []byte{0xCC, 2, 3, 0x01}},
		{127, []byte{0xCC, 2, 3, 0x7F}},
		{128, []byte{0xCC, 2, 3, 0x80, 0x01}},
		{1 << 16, []byte{0xCC, 2, 3, 0x80, 0x80, 0x04}},
		{1<<32 - 1, []byte{0xCC, 2, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
	} {
		data := AppendRef(nil, tc.epoch, ctrl)
		if want := append(append([]byte(nil), tc.prefix...), ctrl...); !bytes.Equal(data, want) {
			t.Fatalf("epoch %d: AppendRef gives % x, want % x", tc.epoch, data, want)
		}
		if !IsRef(data) {
			t.Fatalf("epoch %d: IsRef is false", tc.epoch)
		}
		p, err := UnmarshalProgram(data)
		if err != nil {
			t.Fatalf("epoch %d: %v", tc.epoch, err)
		}
		if p.Measure.Mode != MeasureRef || p.Measure.Epoch != tc.epoch || len(p.Instrs) != 3 {
			t.Fatalf("epoch %d: decoded %+v", tc.epoch, p)
		}
		if want := fmt.Sprintf("Measure(ref:%d).Cwnd(200).WaitRtts(1).Report()", tc.epoch); p.String() != want {
			t.Fatalf("prints %q, want %q", p, want)
		}
		if again, err := MarshalProgram(p); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("epoch %d: accepted bytes % x re-encode to % x, %v", tc.epoch, data, again, err)
		}
		n, err := MeasurePrefixLen(data)
		m, n2, err2 := UnmarshalMeasure(data)
		if err != nil || err2 != nil || n != len(tc.prefix) || n2 != n || m.Epoch != tc.epoch {
			t.Fatalf("epoch %d: measure half ends at %d (%v), decodes to %d bytes, %+v (%v); want %d",
				tc.epoch, n, err, n2, m, err2, len(tc.prefix))
		}
		if p.RegNames() != nil {
			t.Fatalf("a reference reports under names of its own: %v", p.RegNames())
		}
	}

	refused := []struct {
		name string
		data []byte
		err  string
	}{
		{"epoch 0", append([]byte{0xCC, 2, 3, 0x00}, ctrl...), "reference to epoch 0"},
		{"padded epoch", append([]byte{0xCC, 2, 3, 0x85, 0x00}, ctrl...), "epoch padded to 2 bytes"},
		{"epoch past 32 bits", append([]byte{0xCC, 2, 3, 0x80, 0x80, 0x80, 0x80, 0x10}, ctrl...), "bad epoch"},
		{"no epoch", []byte{0xCC, 2, 3}, "bad epoch"},
		{"no control half", []byte{0xCC, 2, 3, 0x05}, "bad list length"},
		{"trailing byte", append(append([]byte{0xCC, 2, 3, 0x05}, ctrl...), 0), "1 trailing bytes"},
		{"register index", []byte{0xCC, 2, 3, 0x05, 1, instrTagCwnd, exprTagReg, 0}, "register index 0 out of range (0 in scope)"},
	}
	for _, tc := range refused {
		_, err := UnmarshalProgram(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: UnmarshalProgram says %v, want %q", tc.name, err, tc.err)
		}
		if !IsRef(tc.data) {
			t.Errorf("%s: IsRef is false of % x", tc.name, tc.data)
		}
	}
	if IsRef([]byte{0xCC, 2}) || IsRef([]byte{0xCC, 2, 1, 0}) || IsRef([]byte{0xCC, 1, 3, 5}) {
		t.Error("IsRef holds for bytes that are no reference")
	}

	// Built by hand, epoch 0 is refused by the validator and the encoder alike.
	zero := &Program{Measure: MeasureSpec{Mode: MeasureRef}, Instrs: []Instr{Report{}}}
	if err := zero.Validate(); err == nil || !strings.Contains(err.Error(), "reference to epoch 0") {
		t.Errorf("Validate of a reference to epoch 0: %v", err)
	}
	if _, err := MarshalProgram(zero); err == nil {
		t.Error("a reference to epoch 0 marshalled")
	}
}

// TestReferenceReadsNoRegisters: a reference stands alone as a program with
// no registers. A control half that reads one of the named half's registers
// is whole only beside that half: the halves still decode, and validation
// reports the read in its ordinary words.
func TestReferenceReadsNoRegisters(t *testing.T) {
	whole, n, err := MarshalHalves(testPrograms(t)[1]) // Cwnd(cwnd + delta*mss)
	if err != nil {
		t.Fatal(err)
	}
	if end, err := MeasurePrefixLen(whole); err != nil || end != n {
		t.Fatalf("MarshalHalves puts the control half at %d, the scan at %d (%v)", n, end, err)
	}
	ref := AppendRef(nil, 9, whole[n:])
	if _, err := UnmarshalProgram(ref); err == nil || !strings.Contains(err.Error(), `unknown variable "delta"`) {
		t.Fatalf("UnmarshalProgram of a reference that reads a register: %v", err)
	}
	end, err := MeasurePrefixLen(ref)
	if err != nil {
		t.Fatal(err)
	}
	instrs, _, err := UnmarshalControl(ref[end:])
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := UnmarshalControl(whole[n:])
	if !reflect.DeepEqual(instrs, want) {
		t.Fatalf("control half behind a reference decodes to %v, behind its fold to %v", instrs, want)
	}
}
