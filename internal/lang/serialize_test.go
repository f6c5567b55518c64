package lang

import (
	"bytes"
	"math/rand"
	"reflect"
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
