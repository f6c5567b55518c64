package lang_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	. "github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
	"github.com/ccp-repro/ccp/internal/lang/randprog"
)

// FuzzMeasurePrefix pins the two-halves decoding to the whole-program
// decoder on arbitrary bytes. The install path keys its artifact table on
// data[:MeasurePrefixLen(data)] and treats "starts with a known measure half"
// as "has that measure half", so:
//
//   - the skip-scan ends exactly where the building decoder ends, and is a
//     function of those bytes alone (cutting the input there, or swapping
//     what follows, leaves it unchanged) — the encoding is self-delimiting;
//   - malformed input — a non-canonical spelling included — fails with the
//     error UnmarshalProgram gives, and what the scan accepts the building
//     decoder accepts;
//   - measure half + control half + validation is UnmarshalProgram.
//
// It also derives an artifact for a measure half that is the flow's current
// one with other Init values, without decoding it (SameShape), so:
//
//   - the Init offsets the skip-scan reports are exactly where the building
//     decoder read its Inits;
//   - overwriting only those bytes changes neither the prefix length nor
//     anything decoded but the Inits, and changing any other byte of the
//     prefix is not the same shape.
func FuzzMeasurePrefix(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		if data, err := MarshalProgram(randprog.Program(rng)); err == nil {
			f.Add(data)
			f.Add(data[:len(data)/2])
		}
	}
	for _, tc := range randprog.NonCanonical() {
		f.Add(tc.Data)
	}
	for _, data := range referenceSeeds(rng) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xCC, 2, 1, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, wholeErr := UnmarshalProgram(data)
		end, scanErr := MeasurePrefixLen(data)
		m, n, mErr := UnmarshalMeasure(data)
		if scanErr != nil {
			// The scan only fails on malformed bytes, which the whole decoder
			// reports the same way (the first bad byte wins).
			if wholeErr == nil || wholeErr.Error() != scanErr.Error() {
				t.Fatalf("scan error %q, UnmarshalProgram error %v", scanErr, wholeErr)
			}
			if mErr == nil || mErr.Error() != scanErr.Error() {
				t.Fatalf("scan error %q, UnmarshalMeasure error %v", scanErr, mErr)
			}
			return
		}
		if mErr == nil && n != end {
			t.Fatalf("scan ended at %d, decoder consumed %d", end, n)
		}
		for _, tail := range [][]byte{nil, {0}, {0xff, 0xff, 0xff, 0xff}} {
			cut := append(append([]byte(nil), data[:end]...), tail...)
			if e2, err := MeasurePrefixLen(cut); err != nil || e2 != end {
				t.Fatalf("prefix of %d bytes followed by %x rescans to %d, %v", end, tail, e2, err)
			}
		}
		// What the scan walks past the building decoder builds: with an empty
		// control half behind it the measure half decodes (validation aside),
		// so a spelling refused as non-canonical is refused by both.
		if _, err := DecodeProgram(append(append([]byte(nil), data[:end]...), 0, 0)); err != nil {
			t.Fatalf("the scan accepts a measure half the decoder refuses: %v", err)
		}
		if mErr == nil {
			checkInitOffsets(t, data, end, m)
		}
		instrs, urgent, cErr := UnmarshalControl(data[end:])
		if cErr != nil {
			if wholeErr == nil || wholeErr.Error() != cErr.Error() {
				t.Fatalf("control error %q, UnmarshalProgram error %v", cErr, wholeErr)
			}
			return
		}
		// Both halves decoded: what is left is validation, measure half first.
		if mErr != nil {
			if wholeErr == nil || wholeErr.Error() != mErr.Error() {
				t.Fatalf("measure error %q, UnmarshalProgram error %v", mErr, wholeErr)
			}
			return
		}
		var regNames []string
		if m.Mode == MeasureFold {
			regNames = m.Fold.RegNames()
		}
		if vErr := ValidateControl(instrs, StdResolver(regNames)); vErr != nil {
			if wholeErr == nil || wholeErr.Error() != vErr.Error() {
				t.Fatalf("control validation %q, UnmarshalProgram error %v", vErr, wholeErr)
			}
			return
		}
		if wholeErr != nil {
			t.Fatalf("halves accept what UnmarshalProgram refuses: %v", wholeErr)
		}
		halves := &Program{Measure: m, Instrs: instrs, UrgentECN: urgent}
		if !reflect.DeepEqual(whole, halves) {
			// NaN constants defeat DeepEqual; the re-encoding settles it.
			a, errA := MarshalProgram(whole)
			b, errB := MarshalProgram(halves)
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("halves decode to a different program:\n whole:  %s\n halves: %s", whole, halves)
			}
		}
	})
}

// checkInitOffsets holds MeasureInits and SameShape to the building decoder:
// m is what UnmarshalMeasure made of data, whose measure half is data[:end].
func checkInitOffsets(t *testing.T, data []byte, end int, m MeasureSpec) {
	n, inits, err := MeasureInits(data)
	if err != nil || n != end {
		t.Fatalf("MeasureInits ends at %d, %v; MeasurePrefixLen at %d", n, err, end)
	}
	var regs []RegDef
	if m.Mode == MeasureFold {
		regs = m.Fold.Regs
	}
	if len(inits) != len(regs) {
		t.Fatalf("%d Init offsets for %d registers", len(inits), len(regs))
	}
	prefix := string(data[:end])
	moved := append([]byte(nil), data...)
	want := make([]uint64, len(regs))
	for i, off := range inits {
		if got := binary.LittleEndian.Uint64(data[off:]); got != math.Float64bits(regs[i].Init) {
			t.Fatalf("register %d: Init %x decoded, %x at offset %d", i, math.Float64bits(regs[i].Init), got, off)
		}
		// Any bits will do, NaN payloads and subnormals included.
		want[i] = math.Float64bits(regs[i].Init)*0x9E3779B97F4A7C15 + uint64(off)
		binary.LittleEndian.PutUint64(moved[off:], want[i])
	}
	if !SameShape(prefix, moved[:end], inits) {
		t.Fatal("a measure half with only its Inits overwritten is not the same shape")
	}
	m2, n2, err := UnmarshalMeasure(moved)
	if err != nil || n2 != end {
		t.Fatalf("Inits overwritten: decodes to %d bytes, %v; was %d", n2, err, end)
	}
	for i := range regs {
		if got := math.Float64bits(m2.Fold.Regs[i].Init); got != want[i] {
			t.Fatalf("register %d: wrote Init %x, decoded %x", i, want[i], got)
		}
		m2.Fold.Regs[i].Init = regs[i].Init
	}
	// Inits put back, it is the spec it was (compared by encoding: NaN
	// constants defeat DeepEqual).
	a, errA := MarshalProgram(&Program{Measure: m})
	b, errB := MarshalProgram(&Program{Measure: m2})
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("overwriting Inits changed more than the Inits:\n was: %x\n now: %x", a, b)
	}
	// Every other byte of the prefix is shape.
	isInit := make([]bool, end)
	for _, off := range inits {
		for k := off; k < off+8; k++ {
			isInit[k] = true
		}
	}
	for k := 0; k < end; k++ {
		if isInit[k] {
			continue
		}
		other := append([]byte(nil), data[:end]...)
		other[k] ^= 1 << (k % 8)
		if SameShape(prefix, other, inits) {
			t.Fatalf("byte %d of the measure half changed and SameShape held", k)
		}
	}
	if end < len(data) && SameShape(prefix, data[:end+1], inits) {
		t.Fatal("SameShape held for a longer byte string")
	}
}

// FuzzProgramRoundTrip pins the program encoding as an identity in both
// directions. From bytes: whatever UnmarshalProgram accepts, MarshalProgram
// gives back byte for byte — the artifact table and a flow's "is this the
// measure half I run" test compare bytes, so one program must be one string.
// From programs: any program MarshalProgram takes — sound or not, with names
// nothing declares, constants of every kind and registers past the one-byte
// index — comes back from the decoder node for node and bit for bit, and is
// refused, if it is, in Validate's own words.
func FuzzProgramRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	for i := int64(0); i < 32; i++ {
		data, err := MarshalProgram(wireProgram(i))
		if err != nil {
			continue
		}
		if len(data) > 1024 {
			// The seed number alone brings the large fold back; as corpus
			// bytes it would only give the fuzzer 40 KiB inputs to minimize.
			data = data[:64]
		}
		f.Add(data, i)
		if i%4 == 0 {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			f.Add(data, i)
		}
	}
	for _, tc := range randprog.NonCanonical() {
		f.Add(tc.Data, int64(len(tc.Data)))
	}
	for _, data := range referenceSeeds(rng) {
		f.Add(data, int64(len(data)))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if p, err := UnmarshalProgram(data); err == nil {
			if again, err := MarshalProgram(p); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted bytes do not re-encode to themselves:\n in:  %x\n out: %x (%v)\n program: %s", data, again, err, p)
			}
		}

		p := wireProgram(seed)
		enc, err := MarshalProgram(p)
		if err != nil {
			if p.Measure.Mode <= MeasureVector {
				t.Fatalf("marshal: %v\nprogram: %s", err, p)
			}
			return // breakProgram's mode 9: there is nothing to encode it as
		}
		if len(enc) != cap(enc) {
			t.Fatalf("%d bytes encoded into a buffer of %d", len(enc), cap(enc))
		}
		got, err := DecodeProgram(enc)
		if err != nil {
			t.Fatalf("the encoder's own bytes are refused: %v\nprogram: %s", err, p)
		}
		if !sameProgram(p, got) {
			t.Fatalf("round trip mismatch:\n in:  %s\n out: %s", p, got)
		}
		_, wireErr := UnmarshalProgram(enc)
		if want := p.Validate(); (want == nil) != (wireErr == nil) || (want != nil && want.Error() != wireErr.Error()) {
			t.Fatalf("Validate says %v, the far end of the wire %v\nprogram: %s", want, wireErr, p)
		}
	})
}

// referenceSeeds is the by-reference form as corpus: random programs' control
// halves behind references of every epoch width (those that read no register
// are accepted, and must re-encode to themselves), and the spellings the
// decoder refuses — epoch 0, a padded epoch, one past 32 bits.
func referenceSeeds(rng *rand.Rand) [][]byte {
	seeds := [][]byte{
		{0xCC, 2, 3, 0x00, 1, 0x14, 0},
		{0xCC, 2, 3, 0x85, 0x00, 1, 0x14, 0},
		{0xCC, 2, 3, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 0x14, 0},
		{0xCC, 2, 3},
	}
	for _, epoch := range []uint32{1, 127, 128, 1 << 14, 1 << 21, 1 << 28, math.MaxUint32} {
		data, n, err := MarshalHalves(randprog.Program(rng))
		if err == nil {
			seeds = append(seeds, AppendRef(nil, epoch, data[n:]))
		}
	}
	return seeds
}

// wireProgram is the seed's random program, left alone, damaged the ways
// validation catches (breakProgram), or grown where the encoding has more
// than one form to choose from: constants the two-byte form must not take,
// names nothing declares, and folds of up to maxListLen registers, read
// through both index forms.
func wireProgram(seed int64) *Program {
	rng := rand.New(rand.NewSource(seed))
	p := randprog.Program(rng)
	fold := p.Measure.Fold
	switch rng.Intn(4) {
	case 0:
	case 1:
		breakProgram(rng, p)
	case 2:
		consts := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324,
			0, 1, 255, 256, -1, 0.5, 254.5, math.MaxFloat64, math.Float64frombits(rng.Uint64())}
		c := func() Expr { return Const(consts[rng.Intn(len(consts))]) }
		p.Instrs = append(p.Instrs, SetRate{E: Ite(c(), Mul(c(), V("nosuch")), Add(c(), V("rate")))})
		if fold != nil {
			fold.Updates = append(fold.Updates, Assign{Dst: fold.Regs[0].Name, E: Max(c(), Sub(V("pkt.now"), c()))})
		}
	case 3:
		if fold != nil {
			n := []int{100, 126, 127, 128, 129, 300, 4096 - len(fold.Regs)}[rng.Intn(7)]
			for i := 0; i < n; i++ {
				fold.Regs = append(fold.Regs, RegDef{Name: fmt.Sprintf("r%d", i), Init: float64(i) / 2})
			}
			for i := 0; i < 8; i++ {
				a, b := rng.Intn(n), rng.Intn(n)
				fold.Updates = append(fold.Updates, Assign{Dst: fmt.Sprintf("r%d", a),
					E: Add(V(fmt.Sprintf("r%d", b)), V(fold.Regs[0].Name))})
			}
			p.Instrs = append(p.Instrs, SetCwnd{E: V(fmt.Sprintf("r%d", n-1))})
		}
	}
	return p
}

// sameProgram is DeepEqual that tells −0 from 0 and a NaN from nothing: every
// constant and Init by its bits.
func sameProgram(a, b *Program) bool {
	bits := math.Float64bits
	if a.Measure.Mode != b.Measure.Mode || a.UrgentECN != b.UrgentECN || len(a.Instrs) != len(b.Instrs) ||
		(a.Measure.Fold == nil) != (b.Measure.Fold == nil) || !reflect.DeepEqual(a.Measure.Fields, b.Measure.Fields) {
		return false
	}
	var sameExpr func(x, y Expr) bool
	sameExpr = func(x, y Expr) bool {
		switch x := x.(type) {
		case Const:
			y, ok := y.(Const)
			return ok && bits(float64(x)) == bits(float64(y))
		case Var:
			y, ok := y.(Var)
			return ok && x == y
		case *Bin:
			y, ok := y.(*Bin)
			return ok && x.Op == y.Op && sameExpr(x.L, y.L) && sameExpr(x.R, y.R)
		case *If:
			y, ok := y.(*If)
			return ok && sameExpr(x.Cond, y.Cond) && sameExpr(x.Then, y.Then) && sameExpr(x.Else, y.Else)
		}
		return x == nil && y == nil
	}
	if fa, fb := a.Measure.Fold, b.Measure.Fold; fa != nil {
		if len(fa.Regs) != len(fb.Regs) || len(fa.Updates) != len(fb.Updates) {
			return false
		}
		for i, r := range fa.Regs {
			if r.Name != fb.Regs[i].Name || bits(r.Init) != bits(fb.Regs[i].Init) {
				return false
			}
		}
		for i, u := range fa.Updates {
			if u.Dst != fb.Updates[i].Dst || !sameExpr(u.E, fb.Updates[i].E) {
				return false
			}
		}
	}
	for i, in := range a.Instrs {
		if reflect.TypeOf(in) != reflect.TypeOf(b.Instrs[i]) || !sameExpr(InstrExpr(in), InstrExpr(b.Instrs[i])) {
			return false
		}
	}
	return true
}

// FuzzStackVsRegister is the differential harness pinning the register VM
// to the reference stack interpreter (the CC-Fuzz idea applied to the engine
// and its reference): a seeded random program is compiled through both pipelines
// and driven over a seeded random packet stream — including NaN/Inf/zero
// specials — and every fold register after every packet, plus every
// control-expression value, must match bit for bit.
//
// The same program and stream also exercise the verifier's soundness
// contract (verifySoundness): a location the abstract interpretation left
// unflagged must never hit the runtime's defensive substitutions when run
// concretely.
func FuzzStackVsRegister(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed*7+1)
	}
	f.Fuzz(func(t *testing.T, progSeed, streamSeed int64) {
		rng := rand.New(rand.NewSource(progSeed))
		p := randprog.Program(rng)
		if p.Validate() != nil {
			t.Skip("generator produced an invalid program")
		}
		var regNames []string
		if p.Measure.Mode == MeasureFold {
			regNames = p.Measure.Fold.RegNames()
			diffFold(t, p.Measure.Fold, uint64(streamSeed))
		}
		diffCtrlExprs(t, p, regNames, uint64(streamSeed))
		verifySoundness(t, p, uint64(streamSeed))
	})
}

// diffFold steps the fold on the register VM and on the stack reference over
// the same packet stream and requires bit-identical registers after every
// packet.
func diffFold(t *testing.T, spec *FoldSpec, seed uint64) {
	t.Helper()
	cfS, err := CompileStackFold(spec)
	if err != nil {
		t.Fatalf("stack compile: %v", err)
	}
	cfR, err := CompileFold(spec)
	if err != nil {
		t.Fatalf("register compile: %v", err)
	}
	nregs := len(spec.Regs)
	vs := make([]float64, VarTableSize(nregs))
	vr := make([]float64, cfR.FrameLen())
	cfR.InitRegs(vs)
	cfR.InitRegs(vr)
	src := newSpecialSource(seed)
	for p := 0; p < 64; p++ {
		for fi := 0; fi < VarTableSize(0); fi++ {
			v := src.next()
			vs[fi] = v
			vr[fi] = v
		}
		cfS.Step(vs)
		cfR.Step(vr)
		for i := 0; i < nregs; i++ {
			a, b := vs[RegSlot(i)], vr[RegSlot(i)]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("packet %d register %q: stack=%v (%#x) register=%v (%#x)\nupdates: %v",
					p, spec.Regs[i].Name, a, math.Float64bits(a), b, math.Float64bits(b), spec.Updates)
			}
		}
	}
}

// diffCtrlExprs compiles the control half for the register VM, as the
// datapath does, and every expression of it for the stack reference, and
// compares values over random variable tables.
func diffCtrlExprs(t *testing.T, p *Program, regNames []string, seed uint64) {
	t.Helper()
	resolve := StdResolver(regNames)
	nvars := VarTableSize(len(regNames))
	src := newSpecialSource(seed ^ 0x9e3779b97f4a7c15)
	// The datapath's compile, checked against CompileReg per instruction.
	codes := sameControlCode(t, p, resolve, nvars)
	for idx, in := range p.Instrs {
		e := InstrExpr(in)
		if e == nil {
			continue // Report
		}
		stack, err := Compile(e, resolve)
		if err != nil {
			t.Fatalf("instr %d: stack compile: %v", idx, err)
		}
		reg := &codes[idx]
		frame := make([]float64, reg.FrameLen)
		vars := make([]float64, nvars)
		for trial := 0; trial < 16; trial++ {
			for i := range vars {
				vars[i] = src.next()
			}
			copy(frame, vars)
			for i := nvars; i < len(frame); i++ {
				frame[i] = 0
			}
			sv := stack.Eval(vars, nil)
			rv := reg.Eval(frame)
			if math.Float64bits(sv) != math.Float64bits(rv) {
				t.Fatalf("instr %d trial %d: %s\nstack=%v (%#x) register=%v (%#x)",
					idx, trial, e, sv, math.Float64bits(sv), rv, math.Float64bits(rv))
			}
		}
	}
}

// verifySoundness checks the Install-gate verifier against ground truth:
// analyze the program under the adversarial profile (every input
// unconstrained, NaN and ±Inf included), then run it concretely over a
// specials-biased stream. Soundness means the verifier's silence is a
// guarantee — a fold update or instruction with no div-zero finding must
// never hit the runtime's x/0 substitution, and a Cwnd/Rate write with no
// nan-write/bounds finding must produce an in-range, non-NaN value. A
// failure here is a verifier bug (a missed over-approximation), the exact
// class of bug that would let a bad program through the Install gate.
func verifySoundness(t *testing.T, p *Program, seed uint64) {
	t.Helper()
	rep, err := absint.Analyze(p, absint.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	// Index findings by check and location: "kind/index" per Where.
	flagged := make(map[string]bool)
	for _, fd := range rep.Findings {
		flagged[fd.Check+"@"+fd.Where.Kind+"/"+fmt.Sprint(fd.Where.Index)] = true
	}
	has := func(check, kind string, idx int) bool {
		return flagged[check+"@"+kind+"/"+fmt.Sprint(idx)]
	}

	var cf *CompiledFold
	var regNames []string
	if p.Measure.Mode == MeasureFold {
		regNames = p.Measure.Fold.RegNames()
		cf, err = CompileFold(p.Measure.Fold)
		if err != nil {
			t.Fatalf("fold compile: %v", err)
		}
	}
	resolve := StdResolver(regNames)
	nvars := VarTableSize(len(regNames))
	vars := make([]float64, nvars) // driven by the tree-walker, which reports the events
	ref := make([]float64, nvars)  // driven by the register VM, sized as a flow's table is
	if cf != nil {
		ref = make([]float64, cf.FrameLen())
	}
	env := func(name string) (float64, bool) {
		slot, ok := resolve(name)
		if !ok {
			return 0, false
		}
		return vars[slot], true
	}
	if cf != nil {
		cf.InitRegs(vars)
		cf.InitRegs(ref)
	}

	type ctrl struct {
		idx  int
		kind string // Where.Name: "Cwnd", "Rate", "Wait", "WaitRtts"
		e    Expr
		code *RegCode
	}
	var ctrls []ctrl
	for idx, in := range p.Instrs {
		var kind string
		var e Expr
		switch n := in.(type) {
		case SetRate:
			kind, e = "Rate", n.E
		case SetCwnd:
			kind, e = "Cwnd", n.E
		case Wait:
			kind, e = "Wait", n.Seconds
		case WaitRtts:
			kind, e = "WaitRtts", n.Rtts
		case Report:
			continue
		}
		code, err := CompileReg(e, resolve, nvars)
		if err != nil {
			t.Fatalf("instr %d: %v", idx, err)
		}
		ctrls = append(ctrls, ctrl{idx: idx, kind: kind, e: e, code: code})
	}

	src := newSpecialSource(seed ^ 0xa11ab57ac7a11a5e)
	for pkt := 0; pkt < 64; pkt++ {
		for fi := 0; fi < VarTableSize(0); fi++ {
			v := src.next()
			vars[fi] = v
			ref[fi] = v
		}
		if cf != nil {
			// Step the fold by the tree-walker, update by update, so every
			// division-substitution is attributed to its update index; the
			// register VM runs alongside and the registers must agree bitwise
			// (the events are only evidence if the values are the engine's).
			for ui, u := range p.Measure.Fold.Updates {
				v, tr, err := EvalEvents(u.E, env)
				if err != nil {
					t.Fatalf("packet %d update %d: %v", pkt, ui, err)
				}
				if tr.DivZero > 0 && !has(absint.CheckDivZero, "update", ui) {
					t.Errorf("unsound: packet %d, fold update %d (%s) hit the x/0 substitution with no div-zero finding\nexpr: %s",
						pkt, ui, u.Dst, u.E)
				}
				if slot, ok := resolve(u.Dst); ok {
					vars[slot] = v
				}
			}
			cf.Step(ref)
			for i := range regNames {
				a, b := vars[RegSlot(i)], ref[RegSlot(i)]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("Eval diverged from the register VM: packet %d register %q: eval=%v (%#x) vm=%v (%#x)",
						pkt, regNames[i], a, math.Float64bits(a), b, math.Float64bits(b))
				}
			}
		}
		// Control expressions evaluate against reachable register states
		// (the fold output) and adversarial packet/flow inputs — exactly
		// the state space the adversarial profile over-approximates.
		for _, c := range ctrls {
			v, tr, err := EvalEvents(c.e, env)
			if err != nil {
				t.Fatalf("packet %d instr %d: %v", pkt, c.idx, err)
			}
			if cv := c.code.Eval(vars); math.Float64bits(v) != math.Float64bits(cv) {
				t.Fatalf("Eval diverged from the register VM: packet %d instr %d: eval=%v vm=%v\nexpr: %s",
					pkt, c.idx, v, cv, c.e)
			}
			if tr.DivZero > 0 && !has(absint.CheckDivZero, "instr", c.idx) {
				t.Errorf("unsound: packet %d, instr %d %s hit the x/0 substitution with no div-zero finding\nexpr: %s",
					pkt, c.idx, c.kind, c.e)
			}
			var lo, hi float64
			switch c.kind {
			case "Cwnd":
				lo, hi = 0, 1<<30
			case "Rate":
				lo, hi = 0, 1e12
			default:
				continue
			}
			if math.IsNaN(v) {
				if !has(absint.CheckNaNWrite, "instr", c.idx) {
					t.Errorf("unsound: packet %d, instr %d %s wrote NaN with no nan-write finding\nexpr: %s",
						pkt, c.idx, c.kind, c.e)
				}
			} else if (v < lo || v > hi) && !has(absint.CheckBounds, "instr", c.idx) {
				t.Errorf("unsound: packet %d, instr %d %s wrote %v outside [%g, %g] with no bounds finding\nexpr: %s",
					pkt, c.idx, c.kind, v, lo, hi, c.e)
			}
		}
	}
}

// specialSource is a deterministic xorshift64 stream biased toward the
// values that break floating-point identities: NaN, ±Inf, zeros, and
// denormal-scale magnitudes alongside ordinary field values.
type specialSource struct{ x uint64 }

func newSpecialSource(seed uint64) *specialSource {
	return &specialSource{x: seed | 1}
}

func (s *specialSource) next() float64 {
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	switch s.x % 20 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return math.MaxFloat64
	case 6:
		return 5e-324 // smallest denormal
	case 7:
		return -float64(s.x%1000) / 8
	default:
		return float64(s.x%1000000) / 128
	}
}
