package lang_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	// The fuzz harness lives in the external test package so it can import
	// absint and randprog (which import lang) without a cycle; the dot import
	// keeps the DSL constructors readable.
	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
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

// TestNonCanonicalSpellingsRefused: whatever has a short form is refused in
// its long one, in the words the table gives each rule, by the whole-program
// decoder and — where the spelling is in the measure half — by the skip-scan
// alike; the canonical spellings decode and re-encode to themselves.
func TestNonCanonicalSpellingsRefused(t *testing.T) {
	for _, tc := range randprog.NonCanonical() {
		p, err := UnmarshalProgram(tc.Data)
		if tc.Err == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.Name, err)
				continue
			}
			if again, err := MarshalProgram(p); err != nil || !bytes.Equal(again, tc.Data) {
				t.Errorf("%s: accepted bytes % x re-encode to % x, %v", tc.Name, tc.Data, again, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.Err) {
			t.Errorf("%s: UnmarshalProgram says %v, want %q", tc.Name, err, tc.Err)
			continue
		}
		// A spelling the scan walks past is one in the control half.
		_, scanErr := MeasurePrefixLen(tc.Data)
		_, _, mErr := UnmarshalMeasure(tc.Data)
		if (scanErr == nil) != (mErr == nil) || (scanErr != nil && scanErr.Error() != err.Error()) {
			t.Errorf("%s: skip-scan says %v, UnmarshalMeasure %v, UnmarshalProgram %v", tc.Name, scanErr, mErr, err)
		}
	}
}

// TestProgramSizes pins what each bundled algorithm's Install costs on the
// wire: every program it installs when a flow starts — the corpus `make
// verify-programs` walks — against the size measured when the table was
// written. An algorithm answers every report with one of these, so a fatter
// encoding (or a fatter program) is wire_bytes_per_report on every workload
// that installs; it fails here first.
func TestProgramSizes(t *testing.T) {
	want := map[string][]int{
		"vegas":        {122},
		"vegas-vector": {21},
		"xcp":          {89},
		"cubic":        {107},
		"dctcp":        {83},
		"pcc":          {97},
		"sprout":       {26},
		"bbr":          {29},
		"aimd-dp":      {104},
	}
	for _, info := range algorithms.All() {
		progs, _ := core.Describe(info.Factory, 1448)
		if len(progs) != len(want[info.Name]) {
			t.Errorf("%s installs %d programs at flow start, the table has %d", info.Name, len(progs), len(want[info.Name]))
			continue
		}
		for i, p := range progs {
			data, err := MarshalProgram(p)
			if err != nil {
				t.Fatalf("%s: %v", info.Name, err)
			}
			if len(data) > want[info.Name][i] {
				t.Errorf("%s program %d encodes to %d bytes, want <= %d", info.Name, i, len(data), want[info.Name][i])
			}
		}
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
