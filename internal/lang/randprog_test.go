package lang_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	// The fuzz harness lives in the external test package so it can import
	// absint and randprog (which import lang) without a cycle; the dot import
	// keeps the DSL constructors readable.
	. "github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/randprog"
)

func TestRandomProgramsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	valid := 0
	for trial := 0; trial < 500; trial++ {
		p := randprog.Program(rng)
		if err := p.Validate(); err != nil {
			// Random vectors may duplicate fields etc.; only valid
			// programs must round-trip.
			continue
		}
		valid++
		data, err := MarshalProgram(p)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		got, err := UnmarshalProgram(data)
		if err != nil {
			t.Fatalf("trial %d: unmarshal: %v\nprogram: %s", trial, err, p)
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("trial %d: round trip mismatch:\n in:  %s\n out: %s", trial, p, got)
		}
	}
	if valid < 400 {
		t.Fatalf("only %d/500 generated programs were valid; generator too weak", valid)
	}
}

func TestRandomProgramsCompileForDatapath(t *testing.T) {
	// Every valid random program must be fully compilable the way the
	// datapath compiles it: fold to bytecode plus every instruction
	// expression against the fold's registers.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		p := randprog.Program(rng)
		if err := p.Validate(); err != nil {
			continue
		}
		var regNames []string
		if p.Measure.Mode == MeasureFold {
			cf, err := CompileFold(p.Measure.Fold)
			if err != nil {
				t.Fatalf("trial %d: fold compile: %v", trial, err)
			}
			regNames = p.Measure.Fold.RegNames()
			// Folding random packets must not panic and registers must
			// stay finite-or-zero (the VM squashes NaN/Inf).
			vars := make([]float64, VarTableSize(cf.NumRegs()))
			cf.InitRegs(vars)
			for k := 0; k < 50; k++ {
				vars[PktFieldSlot(FieldRTT)] = rng.Float64() / 10
				vars[PktFieldSlot(FieldAcked)] = float64(rng.Intn(10000))
				cf.Step(vars)
			}
			for i := 0; i < cf.NumRegs(); i++ {
				v := vars[RegSlot(i)]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("trial %d: register %d became %v", trial, i, v)
				}
			}
		}
		resolve := StdResolver(regNames)
		for i, in := range p.Instrs {
			var e Expr
			switch n := in.(type) {
			case SetRate:
				e = n.E
			case SetCwnd:
				e = n.E
			case Wait:
				e = n.Seconds
			case WaitRtts:
				e = n.Rtts
			case Report:
				continue
			}
			if _, err := Compile(e, resolve); err != nil {
				t.Fatalf("trial %d instr %d: %v", trial, i, err)
			}
		}
	}
}
