package lang_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	. "github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/randprog"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// bundledPrograms returns every program every bundled algorithm installs
// when a flow starts.
func bundledPrograms(t testing.TB) []*Program {
	t.Helper()
	var out []*Program
	for _, info := range algorithms.All() {
		progs, _ := core.Describe(info.Factory, 1448)
		out = append(out, progs...)
	}
	if len(out) == 0 {
		t.Fatal("no bundled algorithm installs a program")
	}
	return out
}

// sameVerdict requires the validator and its reference to agree on p: both
// accept, or both refuse with the same text. It checks the whole program and,
// where they exist, the fold and the control half on their own.
func sameVerdict(t testing.TB, what string, p *Program) {
	t.Helper()
	agree := func(part string, got, want error) {
		t.Helper()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%s: %s: validator says %v, reference says %v\nprogram: %s", what, part, got, want, p)
		}
	}
	agree("program", p.Validate(), RefValidateProgram(p))
	var regNames []string
	if p.Measure.Mode == MeasureFold && p.Measure.Fold != nil {
		agree("fold", p.Measure.Fold.Validate(), RefValidateFold(p.Measure.Fold))
		regNames = p.Measure.Fold.RegNames()
	}
	resolve := StdResolver(regNames)
	agree("control", ValidateControl(p.Instrs, resolve), RefValidateControl(p.Instrs, resolve))
}

// breakProgram damages a valid random program in one of the ways validation
// exists to catch, or grows its fold past the size where register names are
// scanned. Several unknown names at once exercise which of them is reported.
func breakProgram(rng *rand.Rand, p *Program) {
	unknown := []string{"zz", "aa", "", "pkt.nope", "a_re", "a_reg0", "Cwnd"}
	name := func() Expr { return Var(unknown[rng.Intn(len(unknown))]) }
	fold := p.Measure.Fold
	switch rng.Intn(8) {
	case 0: // unknown variables in the control half
		for i := 0; i < 1+rng.Intn(3); i++ {
			p.Instrs = append(p.Instrs, SetCwnd{E: Ite(Lt(name(), V("cwnd")), name(), Add(name(), C(1)))})
		}
	case 1: // unknown variables in an update
		if fold != nil {
			u := &fold.Updates[rng.Intn(len(fold.Updates))]
			u.E = Max(Mul(name(), u.E), Min(name(), name()))
		}
	case 2:
		if fold != nil {
			fold.Regs = append(fold.Regs, fold.Regs[rng.Intn(len(fold.Regs))])
		}
	case 3:
		if fold != nil {
			fold.Regs[rng.Intn(len(fold.Regs))].Name = []string{"", "cwnd", "pkt.rtt"}[rng.Intn(3)]
		}
	case 4:
		if fold != nil {
			fold.Updates[rng.Intn(len(fold.Updates))].Dst = "undeclared"
		}
	case 5: // a fold past regScanMax, sound or with one of the defects above
		if fold != nil {
			for i := 0; i < 12; i++ {
				fold.Regs = append(fold.Regs, RegDef{Name: fmt.Sprintf("r%d", i)})
			}
			fold.Updates = append(fold.Updates, Assign{Dst: "r7", E: Add(V("r11"), V("a_reg"))})
			if rng.Intn(2) == 0 {
				breakProgram(rng, p)
			}
		}
	case 6:
		p.Measure = MeasureSpec{Mode: MeasureVector, Fields: []Field{FieldRTT, NumPktFields}}
	case 7:
		p.Measure.Mode = MeasureMode(9)
	}
}

// TestValidateMatchesReference: the walking validator gives the verdict and
// the error text of the listing one it replaced, over random programs sound
// and broken, every bundled algorithm's programs, and wire inputs with bytes
// flipped (whatever the decoder still accepts).
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	refused := 0
	for trial := 0; trial < 2000; trial++ {
		p := randprog.Program(rng)
		if trial%2 == 1 {
			breakProgram(rng, p)
		}
		if p.Validate() != nil {
			refused++
		}
		sameVerdict(t, fmt.Sprintf("trial %d", trial), p)
	}
	if refused < 500 {
		t.Fatalf("only %d of 2000 programs were refused: the mutations are too weak", refused)
	}

	wire := [][]byte{}
	for _, p := range bundledPrograms(t) {
		sameVerdict(t, "bundled", p)
		data, err := MarshalProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, data)
	}
	for i := 0; i < 64; i++ {
		if data, err := MarshalProgram(randprog.Program(rng)); err == nil {
			wire = append(wire, data)
		}
	}
	decoded := 0
	for _, data := range wire {
		for m := 0; m < 200; m++ {
			mut := append([]byte(nil), data...)
			for k := 0; k <= rng.Intn(3); k++ {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			p, err := DecodeProgram(mut)
			if err != nil {
				continue
			}
			decoded++
			sameVerdict(t, fmt.Sprintf("wire %x", mut), p)
		}
	}
	if decoded < 1000 {
		t.Fatalf("only %d mutated inputs decoded", decoded)
	}
}

// FuzzValidateVsReference is the same differential on arbitrary bytes: the
// validator sits on input from outside the process, so what replaced the
// listing validator is held to it wherever the decoder lets an input through.
func FuzzValidateVsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 24; i++ {
		p := randprog.Program(rng)
		if i%2 == 1 {
			breakProgram(rng, p)
		}
		if data, err := MarshalProgram(p); err == nil {
			f.Add(data)
		}
	}
	for _, p := range bundledPrograms(f) {
		if data, err := MarshalProgram(p); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return
		}
		sameVerdict(t, "fuzz", p)
	})
}

// TestValidateRejectsNilNodes: a nil operand anywhere in an expression is
// refused by validation, naming the update or instruction it is in, instead
// of surfacing as whichever of the encoder, the compiler or the verifier
// meets it first.
func TestValidateRejectsNilNodes(t *testing.T) {
	holes := map[string]func(hole Expr) Expr{
		"top level": func(h Expr) Expr { return h },
		"Bin.L":     func(h Expr) Expr { return &Bin{Op: OpAdd, L: h, R: C(1)} },
		"Bin.R":     func(h Expr) Expr { return &Bin{Op: OpAdd, L: V("cwnd"), R: h} },
		"If.Cond":   func(h Expr) Expr { return &If{Cond: h, Then: C(1), Else: C(2)} },
		"If.Then":   func(h Expr) Expr { return &If{Cond: V("cwnd"), Then: h, Else: C(2)} },
		"If.Else":   func(h Expr) Expr { return Mul(C(2), &If{Cond: V("cwnd"), Then: C(1), Else: h}) },
	}
	nils := map[string]Expr{"nil": nil, "nil *Bin": (*Bin)(nil), "nil *If": (*If)(nil)}
	for where, build := range holes {
		for kind, hole := range nils {
			e := build(hole)
			fold := &FoldSpec{
				Regs:    []RegDef{{Name: "acked"}, {Name: "x"}},
				Updates: []Assign{{Dst: "acked", E: V("pkt.acked")}, {Dst: "x", E: e}},
			}
			err := fold.Validate()
			if err == nil || !strings.Contains(err.Error(), "nil expression in fold update 1 (x)") {
				t.Errorf("%s in %s of an update: %v", kind, where, err)
			}
			p := &Program{Instrs: []Instr{WaitRtts{Rtts: C(1)}, SetCwnd{E: e}, Report{}}}
			err = p.Validate()
			if err == nil || !strings.Contains(err.Error(), "nil expression in instruction 1 (lang.SetCwnd)") {
				t.Errorf("%s in %s of an instruction: %v", kind, where, err)
			}
		}
	}
}

// TestAllocsValidate pins validation at zero allocations for every program a
// bundled algorithm installs: the agent validates each program it sends twice
// (Builder.Build, Flow.Install), once per report.
func TestAllocsValidate(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, p := range bundledPrograms(t) {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = p.Validate() }); allocs != 0 {
			t.Errorf("Program.Validate allocated %.1f times, want 0: %s", allocs, p)
		}
	}
}

// TestCompileControlMatchesCompileReg: the one-pass control compile gives
// each instruction the RegCode CompileReg gives its expression alone —
// instructions, constant pool, frame, result slot — and Report the zero
// RegCode, over random programs and every bundled algorithm's.
func TestCompileControlMatchesCompileReg(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	progs := bundledPrograms(t)
	for len(progs) < 600 {
		if p := randprog.Program(rng); p.Validate() == nil {
			progs = append(progs, p)
		}
	}
	for _, p := range progs {
		var regNames []string
		if p.Measure.Mode == MeasureFold {
			regNames = p.Measure.Fold.RegNames()
		}
		sameControlCode(t, p, StdResolver(regNames), VarTableSize(len(regNames)))
	}
}

func sameControlCode(t testing.TB, p *Program, resolve Resolver, nvars int) []RegCode {
	t.Helper()
	codes, err := CompileControl(p.Instrs, resolve, nvars)
	if err != nil {
		t.Fatalf("CompileControl: %v\nprogram: %s", err, p)
	}
	if len(codes) != len(p.Instrs) {
		t.Fatalf("%d codes for %d instructions", len(codes), len(p.Instrs))
	}
	for i, in := range p.Instrs {
		want := &RegCode{}
		if e := InstrExpr(in); e != nil {
			if want, err = CompileReg(e, resolve, nvars); err != nil {
				t.Fatalf("instr %d: CompileReg: %v", i, err)
			}
		}
		if !reflect.DeepEqual(&codes[i], want) {
			// NaN constants defeat DeepEqual; their printed form settles it.
			if got, want := fmt.Sprintf("%+v", codes[i]), fmt.Sprintf("%+v", *want); got != want {
				t.Fatalf("instr %d (%s):\n one pass: %s\n alone:    %s", i, in, got, want)
			}
		}
	}
	return codes
}
