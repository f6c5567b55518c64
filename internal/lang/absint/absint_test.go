package absint_test

import (
	"math"
	"testing"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
)

func analyze(t *testing.T, p *lang.Program, cfg absint.Config) *absint.Report {
	t.Helper()
	rep, err := absint.Analyze(p, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep
}

func byCheck(rep *absint.Report, check string) []absint.Finding {
	var out []absint.Finding
	for _, f := range rep.Findings {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

func TestDefaultProgramClean(t *testing.T) {
	p := lang.NewProgram().MeasureEWMA().WaitRtts(1).Report().MustBuild()
	for _, cfg := range []absint.Config{absint.Datapath(), absint.Config{}} {
		rep := analyze(t, p, cfg)
		if len(rep.Findings) != 0 {
			t.Errorf("default program: unexpected findings: %v", rep.Findings)
		}
	}
}

func TestUnguardedDivision(t *testing.T) {
	p := lang.NewProgram().MeasureEWMA().
		Rate(lang.Div(lang.C(1e6), lang.V("pkt.rtt"))).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	fs := byCheck(rep, absint.CheckDivZero)
	if len(fs) != 1 {
		t.Fatalf("want exactly one div-zero finding, got %v", rep.Findings)
	}
	f := fs[0]
	if f.Severity != absint.SevError {
		t.Errorf("div-zero severity = %v, want error", f.Severity)
	}
	if f.Where.Kind != "instr" || f.Where.Index != 0 || f.Where.Name != "Rate" {
		t.Errorf("div-zero where = %+v, want instr 0 Rate", f.Where)
	}
	if f.Path != "$.r" {
		t.Errorf("div-zero path = %q, want $.r (the denominator)", f.Path)
	}
	if f.Expr != "pkt.rtt" {
		t.Errorf("div-zero expr = %q, want pkt.rtt", f.Expr)
	}
	if len(rep.Errors()) == 0 || rep.Err() == nil {
		t.Errorf("report should carry errors")
	}
}

// TestGuardDomination: a dominating comparison guard removes zero from the
// denominator's interval on the guarded path, so the division is clean —
// no separate dominance machinery, just branch refinement.
func TestGuardDomination(t *testing.T) {
	guarded := lang.NewProgram().MeasureEWMA().
		Rate(lang.Ite(lang.Gt(lang.V("pkt.rtt"), lang.C(1e-3)),
			lang.Div(lang.C(1e6), lang.V("pkt.rtt")),
			lang.C(1e6))).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, guarded, absint.Datapath())
	if len(rep.Findings) != 0 {
		t.Errorf("guarded division: unexpected findings: %v", rep.Findings)
	}
}

// TestGuardDominationFalseBranch: the guard can live on the else side —
// refinement negates the comparison (valid because the Datapath profile
// excludes NaN) and still prunes zero.
func TestGuardDominationFalseBranch(t *testing.T) {
	p := lang.NewProgram().MeasureEWMA().
		Rate(lang.Ite(&lang.Bin{Op: lang.OpLe, L: lang.V("pkt.rtt"), R: lang.C(1e-3)},
			lang.C(1e6),
			lang.Div(lang.C(1e6), lang.V("pkt.rtt")))).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	if len(rep.Findings) != 0 {
		t.Errorf("else-guarded division: unexpected findings: %v", rep.Findings)
	}
}

// TestConjunctionGuard: And conditions refine both conjuncts on the true
// branch.
func TestConjunctionGuard(t *testing.T) {
	p := lang.NewProgram().MeasureEWMA().
		Cwnd(lang.Ite(
			&lang.Bin{Op: lang.OpAnd, L: lang.Gt(lang.V("pkt.rtt"), lang.C(1e-3)), R: lang.Lt(lang.V("pkt.rtt"), lang.C(10))},
			lang.Div(lang.C(1e4), lang.V("pkt.rtt")),
			lang.C(0))).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	if len(rep.Findings) != 0 {
		t.Errorf("conjunction guard: unexpected findings: %v", rep.Findings)
	}
}

// TestMaxGuardSoundness is the NaN-through-max trap: math.Max(NaN, ε) is
// NaN, which the runtime squashes to 0 — so max(x, ε) does NOT protect a
// division when x may be NaN. The verifier must flag it under the
// adversarial profile and accept it under the datapath profile (which
// guarantees non-NaN measurements).
func TestMaxGuardSoundness(t *testing.T) {
	p := lang.NewProgram().MeasureEWMA().
		Rate(lang.Min(
			lang.Div(lang.C(1e9), lang.Max(lang.V("pkt.rtt"), lang.C(1e-3))),
			lang.C(1e12))).
		WaitRtts(1).Report().MustBuild()

	if rep := analyze(t, p, absint.Datapath()); len(rep.Findings) != 0 {
		t.Errorf("datapath profile: unexpected findings: %v", rep.Findings)
	}
	rep := analyze(t, p, absint.Config{})
	if len(byCheck(rep, absint.CheckDivZero)) == 0 {
		t.Errorf("adversarial profile: max(NaN, ε) squashes to 0 — div-zero finding expected, got %v", rep.Findings)
	}
}

func TestNaNWrite(t *testing.T) {
	p := lang.NewProgram().MeasureEWMA().
		Cwnd(lang.C(math.NaN())).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	fs := byCheck(rep, absint.CheckNaNWrite)
	if len(fs) != 1 || fs[0].Severity != absint.SevError {
		t.Fatalf("want one nan-write error, got %v", rep.Findings)
	}
	if fs[0].Where.Name != "Cwnd" {
		t.Errorf("nan-write where = %+v", fs[0].Where)
	}
}

func TestBoundsEscape(t *testing.T) {
	p := lang.NewProgram().MeasureEWMA().
		Rate(lang.Mul(lang.V("rate"), lang.C(2))).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	if len(byCheck(rep, absint.CheckBounds)) != 1 {
		t.Fatalf("want one bounds finding, got %v", rep.Findings)
	}

	clamped := lang.NewProgram().MeasureEWMA().
		Rate(lang.Min(lang.Mul(lang.V("rate"), lang.C(2)), lang.C(1e12))).
		WaitRtts(1).Report().MustBuild()
	if rep := analyze(t, clamped, absint.Datapath()); len(rep.Findings) != 0 {
		t.Errorf("clamped doubling: unexpected findings: %v", rep.Findings)
	}
}

func TestNoReportSeverity(t *testing.T) {
	fold := &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "acked_t", Init: 0}},
		Updates: []lang.Assign{{Dst: "acked_t", E: lang.Add(lang.V("acked_t"), lang.V("pkt.acked"))}},
	}
	noReport := lang.NewProgram().MeasureFold(fold).WaitRtts(1).MustBuild()
	rep := analyze(t, noReport, absint.Datapath())
	fs := byCheck(rep, absint.CheckNoReport)
	if len(fs) != 1 || fs[0].Severity != absint.SevError {
		t.Fatalf("fold without Report: want one no-report error, got %v", rep.Findings)
	}

	// EWMA mode carries no program state, so a missing Report is only
	// advisory (the tree's datapath tests install such probes).
	ewma := lang.NewProgram().MeasureEWMA().WaitRtts(1).MustBuild()
	rep = analyze(t, ewma, absint.Datapath())
	fs = byCheck(rep, absint.CheckNoReport)
	if len(fs) != 1 || fs[0].Severity != absint.SevWarn {
		t.Fatalf("EWMA without Report: want one no-report warning, got %v", rep.Findings)
	}
	if len(rep.Errors()) > 0 {
		t.Errorf("EWMA without Report must not be install-blocking")
	}
}

func TestDeadUpdateAndUnreadRegister(t *testing.T) {
	fold := &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "a_r", Init: 0}, {Name: "b_r", Init: 0}},
		Updates: []lang.Assign{
			{Dst: "a_r", E: lang.V("pkt.acked")}, // dead: overwritten below, never read between
			{Dst: "b_r", E: lang.V("pkt.lost")},  // b_r is never read anywhere: unread
			{Dst: "a_r", E: lang.Add(lang.V("pkt.acked"), lang.C(1))},
		},
	}
	p := lang.NewProgram().MeasureFold(fold).
		Cwnd(lang.Min(lang.V("a_r"), lang.C(1<<30))).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	dead := byCheck(rep, absint.CheckDeadUpdate)
	if len(dead) != 1 || dead[0].Where.Index != 0 {
		t.Errorf("want dead-update at update 0, got %v", rep.Findings)
	}
	unread := byCheck(rep, absint.CheckUnreadReg)
	if len(unread) != 1 || unread[0].Where.Name != "b_r" {
		t.Errorf("want unread-register for b_r, got %v", rep.Findings)
	}
	if len(rep.Errors()) > 0 {
		t.Errorf("dead/unread are advisories, got errors: %v", rep.Errors())
	}

	// An intervening read keeps the earlier update live.
	live := &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "a_r", Init: 0}, {Name: "b_r", Init: 0}},
		Updates: []lang.Assign{
			{Dst: "a_r", E: lang.V("pkt.acked")},
			{Dst: "b_r", E: lang.V("a_r")},
			{Dst: "a_r", E: lang.C(0)},
		},
	}
	p2 := lang.NewProgram().MeasureFold(live).
		Cwnd(lang.Min(lang.V("b_r"), lang.C(1<<30))).
		WaitRtts(1).Report().MustBuild()
	rep2 := analyze(t, p2, absint.Datapath())
	if len(byCheck(rep2, absint.CheckDeadUpdate)) != 0 {
		t.Errorf("intervening read: no dead-update expected, got %v", rep2.Findings)
	}
}

func TestNonPositiveWait(t *testing.T) {
	p := lang.NewProgram().MeasureEWMA().Wait(0).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	fs := byCheck(rep, absint.CheckWait)
	if len(fs) != 1 || fs[0].Severity != absint.SevWarn {
		t.Fatalf("want one non-positive-wait warning, got %v", rep.Findings)
	}
}

func TestNoFreshInput(t *testing.T) {
	fold := &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "tick", Init: 0}},
		Updates: []lang.Assign{{Dst: "tick", E: lang.Add(lang.V("tick"), lang.C(1))}},
	}
	p := lang.NewProgram().MeasureFold(fold).WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	if len(byCheck(rep, absint.CheckNoFresh)) != 1 {
		t.Errorf("pure counter fold: want no-fresh-input warning, got %v", rep.Findings)
	}
}

// TestWideningEWMA: an EWMA register never converges exactly (each step
// nudges the bound), so threshold widening must find a finite invariant —
// tight enough that a cwnd write derived from it stays in bounds.
func TestWideningEWMA(t *testing.T) {
	fold := &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "s_rtt", Init: 0}},
		Updates: []lang.Assign{{Dst: "s_rtt",
			E: lang.Add(lang.Mul(lang.C(0.875), lang.V("s_rtt")), lang.Mul(lang.C(0.125), lang.V("pkt.rtt")))}},
	}
	p := lang.NewProgram().MeasureFold(fold).
		Cwnd(lang.Add(lang.C(100), lang.V("s_rtt"))).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	if len(rep.Findings) != 0 {
		t.Errorf("EWMA fold: widening failed to find a finite bound: %v", rep.Findings)
	}
}

// TestWideningAccumulator: an unbounded accumulator must widen to +Inf and
// flag a direct cwnd write, while staying silent once clamped.
func TestWideningAccumulator(t *testing.T) {
	fold := func() *lang.FoldSpec {
		return &lang.FoldSpec{
			Regs:    []lang.RegDef{{Name: "tot", Init: 0}},
			Updates: []lang.Assign{{Dst: "tot", E: lang.Add(lang.V("tot"), lang.V("pkt.acked"))}},
		}
	}
	p := lang.NewProgram().MeasureFold(fold()).
		Cwnd(lang.V("tot")).
		WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	if len(byCheck(rep, absint.CheckBounds)) != 1 {
		t.Errorf("unclamped accumulator: want bounds finding, got %v", rep.Findings)
	}

	clamped := lang.NewProgram().MeasureFold(fold()).
		Cwnd(lang.Min(lang.V("tot"), lang.C(1<<30))).
		WaitRtts(1).Report().MustBuild()
	if rep := analyze(t, clamped, absint.Datapath()); len(rep.Findings) != 0 {
		t.Errorf("clamped accumulator: unexpected findings: %v", rep.Findings)
	}
}

// TestNoDuplicateFindings: findings are muted during fixpoint iteration
// and emitted once over the stable state — a div-zero site inside a fold
// must surface exactly once no matter how many iterations ran.
func TestNoDuplicateFindings(t *testing.T) {
	fold := &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "acc", Init: 0}},
		Updates: []lang.Assign{{Dst: "acc",
			E: lang.Add(lang.V("acc"), lang.Div(lang.C(1), lang.V("pkt.rtt")))}},
	}
	p := lang.NewProgram().MeasureFold(fold).WaitRtts(1).Report().MustBuild()
	rep := analyze(t, p, absint.Datapath())
	if got := len(byCheck(rep, absint.CheckDivZero)); got != 1 {
		t.Errorf("want exactly 1 div-zero finding, got %d: %v", got, rep.Findings)
	}
}

func TestAnalyzeRejectsInvalidPrograms(t *testing.T) {
	if _, err := absint.Analyze(nil, absint.Datapath()); err == nil {
		t.Error("nil program: want error")
	}
	bad := &lang.Program{Measure: lang.MeasureSpec{Mode: lang.MeasureMode(9)}}
	if _, err := absint.Analyze(bad, absint.Datapath()); err == nil {
		t.Error("invalid measure mode: want error")
	}
}

// TestReferenceAnalyzedStandAlone: a program in by-reference form is, on its
// own, a control half over the built-in variables. It analyzes like one; a
// read of a register of the half it names is Validate's unknown variable
// through Analyze, and — put to CheckControl directly, as a tool holding only
// the captured bytes might — an unconstrained value and a finding where it is
// written, never a panic.
func TestReferenceAnalyzedStandAlone(t *testing.T) {
	ref := func(instrs ...lang.Instr) *lang.Program {
		return &lang.Program{Measure: lang.MeasureSpec{Mode: lang.MeasureRef, Epoch: 7}, Instrs: instrs}
	}
	clean := ref(lang.SetCwnd{E: lang.C(14480)}, lang.WaitRtts{Rtts: lang.C(1)}, lang.Report{})
	if rep := analyze(t, clean, absint.Datapath()); len(rep.Findings) != 0 {
		t.Errorf("clean reference: unexpected findings: %v", rep.Findings)
	}
	noReport := ref(lang.SetCwnd{E: lang.C(14480)}, lang.WaitRtts{Rtts: lang.C(1)})
	if fs := byCheck(analyze(t, noReport, absint.Datapath()), absint.CheckNoReport); len(fs) != 1 || fs[0].Severity != absint.SevWarn {
		t.Errorf("reference without Report: want one no-report warning, got %v", fs)
	}

	reads := ref(lang.SetCwnd{E: lang.Add(lang.V("cwnd"), lang.V("delta"))}, lang.WaitRtts{Rtts: lang.C(1)}, lang.Report{})
	if _, err := absint.Analyze(reads, absint.Datapath()); err == nil {
		t.Error("Analyze accepted a reference whose control half reads a register")
	}
	rep := absint.AnalyzeMeasure(reads.Measure, absint.Datapath()).CheckControl(reads.Instrs)
	if fs := byCheck(rep, absint.CheckBounds); len(fs) != 1 || fs[0].Severity != absint.SevError || fs[0].Where.Name != "Cwnd" {
		t.Errorf("register read outside its flow: want one bounds error on the Cwnd write, got %v", rep.Findings)
	}
}
