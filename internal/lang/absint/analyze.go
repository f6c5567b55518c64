package absint

import (
	"errors"
	"fmt"
	"math"

	"github.com/ccp-repro/ccp/internal/lang"
)

// Check identifiers, one per verifier rule.
const (
	CheckDivZero    = "div-zero"          // denominator interval contains zero on a feasible path
	CheckNaNWrite   = "nan-write"         // NaN taint reaches a Cwnd/Rate write
	CheckBounds     = "bounds"            // Cwnd/Rate write escapes the configured clamp bounds
	CheckDeadUpdate = "dead-update"       // fold update overwritten before any read
	CheckUnreadReg  = "unread-register"   // register written but never read by any expression
	CheckNoReport   = "no-report"         // control program never reports
	CheckNoFresh    = "no-fresh-input"    // fold state never derives from a packet field
	CheckWait       = "non-positive-wait" // wait duration provably <= 0 (or NaN)
)

// Severity splits findings into install-blocking errors and advisories.
type Severity uint8

const (
	SevWarn Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warn"
}

// Where locates a finding inside a program.
type Where struct {
	Kind  string // "update", "instr", "fold", "program"
	Index int    // update or instruction index (Kind "update"/"instr")
	Name  string // register name or instruction mnemonic
}

func (w Where) String() string {
	switch w.Kind {
	case "update":
		return fmt.Sprintf("fold update %d (%s)", w.Index, w.Name)
	case "instr":
		return fmt.Sprintf("instr %d %s", w.Index, w.Name)
	case "fold":
		return fmt.Sprintf("fold register %s", w.Name)
	}
	return "program"
}

// Finding is one verifier diagnostic with a source span: Where names the
// update or instruction, Path the position inside its expression tree
// ("$.then.r" = right operand of the then-branch), Expr the offending
// subexpression rendered in the DSL's syntax.
type Finding struct {
	Check    string
	Severity Severity
	Where    Where
	Path     string
	Expr     string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s at %s: %s", f.Severity, f.Check, f.Where, f.Path, f.Message)
}

// Report is the result of verifying one program.
type Report struct {
	Findings []Finding
}

// Errors returns the install-blocking findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == SevError {
			out = append(out, f)
		}
	}
	return out
}

// Err returns nil if the report has no errors, else an error naming the
// first one (and how many more there are).
func (r *Report) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	return errOf(errs[0], len(errs))
}

// errOf is Err's error for n errors, the first of them first.
func errOf(first Finding, n int) error {
	if n == 1 {
		return errors.New(first.String())
	}
	return fmt.Errorf("%s (and %d more)", first, n-1)
}

// The datapath's runtime clamps, and so the upper bounds every cwnd and rate
// write is checked against: 2^30 bytes for cwnd and 1e12 bytes/sec for rate.
// Every write must also stay at or above 0, the clamps' floor.
const (
	CwndMax = 1 << 30
	RateMax = 1e12
)

// Config parameterizes the abstract interpretation: the assumed abstract
// values of packet fields and flow variables.
type Config struct {
	// Assume maps variable names ("pkt.rtt", "cwnd") to their assumed
	// abstract values. Unlisted variables are unconstrained (any float64
	// including NaN). Packet fields are always treated as fresh.
	Assume map[string]AbsVal
}

// Fixpoint budget: widening starts after wideningDelay iterations; after
// iterationCap surviving unstable registers degrade to Top. Termination does
// not depend on iterationCap — widening guarantees it — the cap is a backstop.
const (
	wideningDelay = 4
	iterationCap  = 64
)

// Datapath returns the profile the Install gate verifies under: physically
// plausible measurement ranges (RTTs under an hour, byte counts within the
// cwnd clamp, rates within the rate clamp, a positive MSS) and non-NaN
// flow variables, matching what the simulated datapath actually produces.
// Every call returns the same profile, map included: read it, do not write it.
func Datapath() Config { return datapathProfile }

var datapathProfile = Config{Assume: map[string]AbsVal{
	"pkt.rtt":      Finite(0, 3600),
	"pkt.acked":    Finite(0, CwndMax),
	"pkt.sacked":   Finite(0, CwndMax),
	"pkt.lost":     Finite(0, CwndMax),
	"pkt.ecn":      Finite(0, 1),
	"pkt.snd_rate": Finite(0, RateMax),
	"pkt.rcv_rate": Finite(0, RateMax),
	"pkt.inflight": Finite(0, CwndMax),
	"pkt.hdr_rate": Finite(0, RateMax),
	"pkt.now":      Finite(0, 1e9),
	"cwnd":         Finite(0, CwndMax),
	"rate":         Finite(0, RateMax),
	"mss":          Finite(1, 65536),
	"srtt":         Finite(0, 3600),
	"min_rtt":      Finite(0, 3600),
}}

// Analyze abstractly interprets p under cfg and returns the verifier
// report: AnalyzeMeasure over the measure half, then CheckControl over the
// instruction list. An error is returned only for structurally invalid
// programs (Validate failures) — semantic problems are Findings, not errors.
//
// A program in by-reference form (lang.MeasureRef) is analyzed as what it is
// stand-alone, a control half over the built-in variables: Validate refuses a
// read of the named half's registers, and a control half put to CheckControl
// without it evaluates such a read as unconstrained, which is a finding on
// whatever it is written to. The datapath does neither: it checks a
// reference's control half against the invariant of the half it names.
func Analyze(p *lang.Program, cfg Config) (*Report, error) {
	if p == nil {
		return nil, errors.New("absint: nil program")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return AnalyzeMeasure(p.Measure, cfg).CheckControl(p.Instrs), nil
}

// Invariant is the verifier's result for a measure half, as a value: the
// abstract variable table every control expression is checked against
// (assumed packet fields and flow variables, plus each fold register's
// stable over-approximation) and the findings the fold earns by itself.
//
// It is a function of the measure half — mode, registers with their Init
// values, updates — and the Config alone: the fixpoint starts from the Inits
// and iterates the updates, and no instruction feeds back into it. So one
// Invariant serves every program that shares the measure half, and
// CheckControl on it reports exactly what Analyze on the whole program
// would. Nothing writes to an Invariant after AnalyzeMeasure returns;
// CheckControl may run on several goroutines at once.
type Invariant struct {
	cfg      Config
	fold     *lang.FoldSpec // nil outside fold mode
	mode     lang.MeasureMode
	regNames []string
	resolve  lang.Resolver
	state    []AbsVal
	// Fold-only findings, in the two places Analyze reports them: from the
	// pass over the stable state (before the instruction findings) and from
	// the dead-update scan (after them).
	stepFindings []Finding
	deadFindings []Finding
	// readByFold[i]: some update reads register i. The rest need an
	// instruction to read them, or they are unread.
	readByFold []bool
	fresh      bool // some register derives from a pkt.* field
}

// AnalyzeMeasure iterates m's fold update list to a fixpoint (with widening)
// to obtain the per-register invariant. m must be valid (lang.UnmarshalMeasure
// or Program.Validate).
func AnalyzeMeasure(m lang.MeasureSpec, cfg Config) *Invariant {
	inv := &Invariant{cfg: cfg, mode: m.Mode}
	if m.Mode == lang.MeasureFold {
		inv.fold = m.Fold
		inv.regNames = m.Fold.RegNames()
	}
	inv.resolve = lang.StdResolver(inv.regNames)
	a := inv.analyzer()
	a.rep = &Report{}
	st := a.baseState(len(inv.regNames))
	if inv.fold != nil {
		for i, r := range inv.fold.Regs {
			st[lang.RegSlot(i)] = ConstVal(r.Init)
		}
		scratch := make([]AbsVal, len(st))
		a.fixpoint(st, scratch, len(inv.regNames))
		// Findings are muted during fixpoint iteration; one final pass over
		// the stable invariant emits each at most once.
		a.emit = true
		copy(scratch, st)
		a.step(scratch)
		inv.stepFindings = a.rep.Findings
		a.rep = &Report{}
		a.checkDeadUpdates()
		inv.deadFindings = a.rep.Findings
		inv.readByFold = make([]bool, len(inv.regNames))
		for i, name := range inv.regNames {
			for _, u := range inv.fold.Updates {
				if exprReads(u.E, name) {
					inv.readByFold[i] = true
					break
				}
			}
			inv.fresh = inv.fresh || st[lang.RegSlot(i)].Fresh
		}
	}
	inv.state = st
	return inv
}

// HasErrors reports whether the measure half alone earned an
// install-blocking finding (every program built on it is refused, whatever
// its instructions).
func (inv *Invariant) HasErrors() bool {
	for _, f := range inv.stepFindings {
		if f.Severity == SevError {
			return true
		}
	}
	return false
}

// CheckControl evaluates every control-program expression once against the
// invariant, adds the checks that span both halves (unread registers,
// report liveness), and returns the whole program's report, findings in
// Analyze's order. instrs must be valid against the measure half's names
// (lang.ValidateControl).
func (inv *Invariant) CheckControl(instrs []lang.Instr) *Report {
	a := inv.analyzer()
	a.rep = &Report{}
	inv.check(a, instrs)
	return a.rep
}

// Tally is CheckControl for an install gate, which needs of the report only
// its number of warnings and its Err. It takes the same walk, but counts the
// findings and keeps none but the first error, whose text err carries: err
// is the error CheckControl's report would give.
func (inv *Invariant) Tally(instrs []lang.Instr) (warnings int, err error) {
	a := inv.analyzer()
	a.tally = true
	inv.check(a, instrs)
	if a.errs == 0 {
		return a.warns, nil
	}
	return a.warns, errOf(a.first, a.errs)
}

// check is CheckControl's walk, reporting to a.
func (inv *Invariant) check(a *analyzer, instrs []lang.Instr) {
	a.emit = true
	a.add(inv.stepFindings)
	a.checkInstrs(instrs, inv.state)
	a.add(inv.deadFindings)
	a.checkUnreadRegisters(inv, instrs)
	a.checkReportLiveness(instrs)
	if inv.fold != nil && len(inv.regNames) > 0 && !inv.fresh {
		a.where = Where{Kind: "program"}
		a.report(CheckNoFresh, SevWarn, nil, nil,
			"no fold register derives from a pkt.* field: the fold never incorporates fresh measurements")
	}
}

func (inv *Invariant) analyzer() *analyzer {
	return &analyzer{cfg: inv.cfg, fold: inv.fold, mode: inv.mode, resolve: inv.resolve}
}

type analyzer struct {
	cfg     Config
	fold    *lang.FoldSpec
	mode    lang.MeasureMode
	resolve lang.Resolver
	rep     *Report
	emit    bool
	where   Where
	// tally: count findings instead of writing them to rep, except the
	// first error, kept in first (Invariant.Tally).
	tally       bool
	warns, errs int
	first       Finding
}

// baseState builds the abstract variable table from the assumption
// profile: packet fields (always fresh), then flow variables, then
// registers (filled in by the caller for fold mode).
func (a *analyzer) baseState(nregs int) []AbsVal {
	st := make([]AbsVal, lang.VarTableSize(nregs))
	for i := range st {
		st[i] = TopVal()
	}
	for f := lang.Field(0); f < lang.NumPktFields; f++ {
		v := TopVal()
		if av, ok := a.cfg.Assume[f.String()]; ok {
			v = av
		}
		v.Fresh = true
		st[lang.PktFieldSlot(f)] = v
	}
	for fv := lang.FlowVar(0); fv < lang.NumFlowVars; fv++ {
		if av, ok := a.cfg.Assume[fv.String()]; ok {
			av.Fresh = false
			st[lang.FlowVarSlot(fv)] = av
		}
	}
	return st
}

// step applies one abstract fold step in place: updates run sequentially,
// later updates observing earlier results (matching CompiledFold.Step).
func (a *analyzer) step(st []AbsVal) {
	for i, u := range a.fold.Updates {
		a.where = Where{Kind: "update", Index: i, Name: u.Dst}
		v := a.eval(u.E, st, nil)
		if slot, ok := a.resolve(u.Dst); ok {
			st[slot] = v
		}
	}
}

// fixpoint iterates st's register slots to stability: the resulting state
// over-approximates every reachable register valuation (the initial values
// are part of the invariant because st only ever grows by joining). next is
// scratch of st's length, overwritten by every iteration.
func (a *analyzer) fixpoint(st, next []AbsVal, nregs int) {
	for iter := 0; ; iter++ {
		copy(next, st)
		a.step(next)
		changed := false
		for i := 0; i < nregs; i++ {
			slot := lang.RegSlot(i)
			j := st[slot].Join(next[slot])
			if iter >= wideningDelay {
				j.I = st[slot].I.Widen(j.I)
			}
			if j != st[slot] {
				st[slot] = j
				changed = true
			}
		}
		if !changed {
			return
		}
		if iter >= iterationCap {
			for i := 0; i < nregs; i++ {
				slot := lang.RegSlot(i)
				st[slot] = AbsVal{I: Top(), NaN: true, Fresh: st[slot].Fresh}
			}
			return
		}
	}
}

// path is a position inside an expression tree, as the chain of steps down
// from the root ("$", the nil path). Each step lives in the frame of the eval
// call that takes it, so walking an expression builds no strings; report
// renders the one path a finding needs.
type path struct {
	parent *path
	seg    string
}

func (p *path) String() string {
	if p == nil {
		return "$"
	}
	n := 1
	for q := p; q != nil; q = q.parent {
		n += len(q.seg)
	}
	b := make([]byte, n)
	for q := p; q != nil; q = q.parent {
		n -= len(q.seg)
		copy(b[n:], q.seg)
	}
	b[0] = '$'
	return string(b)
}

// eval computes the abstract value of e in state st, emitting findings
// when a.emit is set. at is the span within the current expression tree.
func (a *analyzer) eval(e lang.Expr, st []AbsVal, at *path) AbsVal {
	switch n := e.(type) {
	case lang.Const:
		return ConstVal(float64(n))
	case lang.Var:
		if slot, ok := a.resolve(string(n)); ok {
			return st[slot]
		}
		return TopVal()
	case *lang.Bin:
		l := a.eval(n.L, st, &path{at, ".l"})
		r := a.eval(n.R, st, &path{at, ".r"})
		if n.Op == lang.OpDiv && a.emit && r.MayBeZero() {
			a.report(CheckDivZero, SevError, &path{at, ".r"}, n.R,
				fmt.Sprintf("denominator %s may be zero (x/0 == 0 silently); guard with a comparison or max(_, ε)", r))
		}
		return binTransfer(n.Op, l, r)
	case *lang.If:
		// The runtime evaluates both branches (purity) but selects on the
		// condition; value-wise only the selected branch matters, so each
		// branch is analyzed under the refined state and infeasible
		// branches contribute nothing.
		c, thenSt, elseSt := a.branch(n.Cond, st, &path{at, ".cond"})
		out := unreachable()
		if thenSt != nil {
			out = a.eval(n.Then, thenSt, &path{at, ".then"})
		}
		if elseSt != nil {
			ev := a.eval(n.Else, elseSt, &path{at, ".else"})
			if thenSt != nil {
				out = out.Join(ev)
			} else {
				out = ev
			}
		}
		out.Fresh = out.Fresh || c.Fresh
		return out
	}
	return TopVal()
}

// branch evaluates an If's condition in st and refines st for each way it
// can go. A comparison's operands are evaluated here, once, for the value and
// both refinements.
func (a *analyzer) branch(cond lang.Expr, st []AbsVal, at *path) (c AbsVal, thenSt, elseSt []AbsVal) {
	if n, ok := cond.(*lang.Bin); ok && isCmp(n.Op) {
		l := a.eval(n.L, st, &path{at, ".l"})
		r := a.eval(n.R, st, &path{at, ".r"})
		return binTransfer(n.Op, l, r), a.refineCmp(n, true, st, l, r), a.refineCmp(n, false, st, l, r)
	}
	return a.eval(cond, st, at), a.refine(cond, true, st), a.refine(cond, false, st)
}

func isCmp(op lang.BinKind) bool {
	switch op {
	case lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe, lang.OpEq, lang.OpNe:
		return true
	}
	return false
}

func (a *analyzer) evalSilent(e lang.Expr, st []AbsVal) AbsVal {
	saved := a.emit
	a.emit = false
	v := a.eval(e, st, nil)
	a.emit = saved
	return v
}

func (a *analyzer) report(check string, sev Severity, at *path, e lang.Expr, msg string) {
	if a.counted(sev) {
		return
	}
	expr := ""
	if e != nil {
		expr = e.String()
	}
	a.keep(Finding{Check: check, Severity: sev, Where: a.where, Path: at.String(), Expr: expr, Message: msg})
}

// add reports findings made earlier (an Invariant's own).
func (a *analyzer) add(fs []Finding) {
	for _, f := range fs {
		if !a.counted(f.Severity) {
			a.keep(f)
		}
	}
}

// counted counts a finding of severity sev when the analyzer tallies, and
// reports whether that is all there is to do with it: everything but the
// first error is only counted.
func (a *analyzer) counted(sev Severity) bool {
	if !a.tally {
		return false
	}
	if sev != SevError {
		a.warns++
		return true
	}
	a.errs++
	return a.errs > 1
}

// keep writes out a finding: to the report, or when tallying as the first
// error.
func (a *analyzer) keep(f Finding) {
	if a.tally {
		a.first = f
		return
	}
	a.rep.Findings = append(a.rep.Findings, f)
}

// refine narrows st under the assumption that cond evaluates to want.
// Returns nil when the branch is infeasible, st itself when nothing can be
// narrowed, or a narrowed copy. Never emits findings.
func (a *analyzer) refine(cond lang.Expr, want bool, st []AbsVal) []AbsVal {
	switch n := cond.(type) {
	case lang.Const:
		v := float64(n)
		if (v != 0 || math.IsNaN(v)) == want {
			return st
		}
		return nil
	case lang.Var:
		slot, ok := a.resolve(string(n))
		if !ok {
			return st
		}
		cur := st[slot]
		if want {
			if truthiness(cur) == tFalse {
				return nil
			}
			return st
		}
		// Condition false: the value compared equal to zero, so it is
		// exactly 0 and not NaN.
		if !cur.I.Contains(0) {
			return nil
		}
		out := cloneSt(st)
		out[slot] = AbsVal{I: Point(0), Fresh: cur.Fresh}
		return out
	case *lang.Bin:
		switch n.Op {
		case lang.OpAnd:
			if want {
				st1 := a.refine(n.L, true, st)
				if st1 == nil {
					return nil
				}
				return a.refine(n.R, true, st1)
			}
			if a.refine(n.L, false, st) == nil && a.refine(n.R, false, st) == nil {
				return nil
			}
			return st
		case lang.OpOr:
			if !want {
				st1 := a.refine(n.L, false, st)
				if st1 == nil {
					return nil
				}
				return a.refine(n.R, false, st1)
			}
			if a.refine(n.L, true, st) == nil && a.refine(n.R, true, st) == nil {
				return nil
			}
			return st
		case lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe, lang.OpEq, lang.OpNe:
			return a.refineCmp(n, want, st, a.evalSilent(n.L, st), a.evalSilent(n.R, st))
		}
	}
	// Generic fallback (arithmetic or nested-If conditions): check
	// feasibility of the requested truth value without narrowing.
	switch truthiness(a.evalSilent(cond, st)) {
	case tTrue:
		if !want {
			return nil
		}
	case tFalse:
		if want {
			return nil
		}
	}
	return st
}

// refineCmp narrows st under "L op R == want" for comparison ops. lv and rv
// are the operands' values in st; they are evaluated again only in a state
// refineVarSide actually narrowed.
func (a *analyzer) refineCmp(n *lang.Bin, want bool, st []AbsVal, lv, rv AbsVal) []AbsVal {
	op := n.Op
	if !want {
		switch op {
		case lang.OpNe:
			op = lang.OpEq // !(l != r) ⇒ l == r (and both non-NaN)
		case lang.OpEq:
			// !(l == r) ⇒ l != r or NaN involved: nothing to narrow, but
			// definitely-equal non-NaN points make the branch infeasible.
			if compare(lang.OpEq, lv, rv) == tTrue {
				return nil
			}
			return st
		default:
			// A false ordered comparison may be explained by a NaN operand;
			// only narrow when neither side can be NaN.
			if lv.NaN || rv.NaN {
				return st
			}
			switch op {
			case lang.OpLt:
				op = lang.OpGe
			case lang.OpLe:
				op = lang.OpGt
			case lang.OpGt:
				op = lang.OpLe
			case lang.OpGe:
				op = lang.OpLt
			}
		}
	}

	if op == lang.OpNe {
		// "l != r" holds: unrepresentable as an interval, but definitely
		// -equal points make it infeasible.
		if compare(lang.OpEq, lv, rv) == tTrue {
			return nil
		}
		return st
	}
	// A true ordered comparison (or equality) implies both operands are
	// non-NaN; a definitely-NaN side makes the branch infeasible.
	if (lv.I.IsEmpty() && lv.NaN) || (rv.I.IsEmpty() && rv.NaN) {
		return nil
	}
	out := a.refineVarSide(st, n.L, op, rv)
	if out == nil {
		return nil
	}
	out = a.refineVarSide(out, n.R, flipCmp(op), lv)
	if out == nil {
		return nil
	}
	// refineVarSide hands back the state it was given unless it narrowed it
	// (a state is never empty: it starts with the packet fields).
	if &out[0] != &st[0] {
		lv, rv = a.evalSilent(n.L, out), a.evalSilent(n.R, out)
	}
	if compare(op, lv, rv) == tFalse {
		return nil
	}
	return out
}

// refineVarSide narrows a bare-Var operand e under "e op other == true".
// The comparison being true clears the operand's NaN possibility; interval
// endpoints use Nextafter for the strict comparisons so the refinement is
// float-exact.
func (a *analyzer) refineVarSide(st []AbsVal, e lang.Expr, op lang.BinKind, other AbsVal) []AbsVal {
	v, ok := e.(lang.Var)
	if !ok {
		return st
	}
	slot, ok := a.resolve(string(v))
	if !ok {
		return st
	}
	cur := st[slot]
	nv := cur
	nv.NaN = false
	if !other.I.IsEmpty() {
		switch op {
		case lang.OpLt:
			nv.I.Hi = math.Min(nv.I.Hi, math.Nextafter(other.I.Hi, math.Inf(-1)))
		case lang.OpLe:
			nv.I.Hi = math.Min(nv.I.Hi, other.I.Hi)
		case lang.OpGt:
			nv.I.Lo = math.Max(nv.I.Lo, math.Nextafter(other.I.Lo, math.Inf(1)))
		case lang.OpGe:
			nv.I.Lo = math.Max(nv.I.Lo, other.I.Lo)
		case lang.OpEq:
			nv.I = nv.I.Meet(other.I)
		}
	}
	if nv.I.IsEmpty() && !nv.NaN {
		return nil
	}
	if nv == cur {
		return st
	}
	out := cloneSt(st)
	out[slot] = nv
	return out
}

func flipCmp(op lang.BinKind) lang.BinKind {
	switch op {
	case lang.OpLt:
		return lang.OpGt
	case lang.OpLe:
		return lang.OpGe
	case lang.OpGt:
		return lang.OpLt
	case lang.OpGe:
		return lang.OpLe
	}
	return op // Eq is symmetric
}

// checkInstrs evaluates every control-program expression against the
// stable invariant and applies the write/wait checks.
func (a *analyzer) checkInstrs(instrs []lang.Instr, st []AbsVal) {
	for i, in := range instrs {
		switch n := in.(type) {
		case lang.SetCwnd:
			a.where = Where{Kind: "instr", Index: i, Name: "Cwnd"}
			v := a.eval(n.E, st, nil)
			a.checkWrite("cwnd", v, CwndMax, n.E)
		case lang.SetRate:
			a.where = Where{Kind: "instr", Index: i, Name: "Rate"}
			v := a.eval(n.E, st, nil)
			a.checkWrite("rate", v, RateMax, n.E)
		case lang.Wait:
			a.where = Where{Kind: "instr", Index: i, Name: "Wait"}
			a.checkWait(a.eval(n.Seconds, st, nil), n.Seconds)
		case lang.WaitRtts:
			a.where = Where{Kind: "instr", Index: i, Name: "WaitRtts"}
			a.checkWait(a.eval(n.Rtts, st, nil), n.Rtts)
		}
	}
}

func (a *analyzer) checkWrite(what string, v AbsVal, hi float64, e lang.Expr) {
	if v.NaN {
		a.report(CheckNaNWrite, SevError, nil, e,
			fmt.Sprintf("%s write may be NaN (%s): the runtime clamp does not catch NaN; guard the inputs", what, v))
	}
	if !v.I.IsEmpty() && (v.I.Lo < 0 || v.I.Hi > hi) {
		a.report(CheckBounds, SevError, nil, e,
			fmt.Sprintf("%s write %s escapes [0, %g]; wrap in an explicit min/max clamp", what, v, hi))
	}
}

func (a *analyzer) checkWait(v AbsVal, e lang.Expr) {
	if v.NaN {
		a.report(CheckWait, SevWarn, nil, e, fmt.Sprintf("wait duration may be NaN (%s)", v))
	}
	if !v.I.IsEmpty() && v.I.Hi <= 0 {
		a.report(CheckWait, SevWarn, nil, e,
			fmt.Sprintf("wait duration %s is never positive: the program busy-loops its instruction list", v))
	}
}

// checkDeadUpdates flags a fold update whose result is overwritten by a
// later update to the same register in the same step with no intervening
// read: the computation is dead per-packet.
func (a *analyzer) checkDeadUpdates() {
	ups := a.fold.Updates
	for i, u := range ups {
		for j := i + 1; j < len(ups); j++ {
			if exprReads(ups[j].E, u.Dst) {
				break // a later update in the same step observes the value
			}
			if ups[j].Dst == u.Dst {
				a.where = Where{Kind: "update", Index: i, Name: u.Dst}
				a.report(CheckDeadUpdate, SevWarn, nil, u.E,
					fmt.Sprintf("value is overwritten by update %d before any read", j))
				break
			}
		}
	}
}

// checkUnreadRegisters flags registers no expression ever reads. They are
// still shipped in reports (write-only telemetry is legitimate), hence a
// warning, not an error.
func (a *analyzer) checkUnreadRegisters(inv *Invariant, instrs []lang.Instr) {
	for i, name := range inv.regNames {
		read := inv.readByFold[i]
		for j := 0; !read && j < len(instrs); j++ {
			read = exprReads(lang.InstrExpr(instrs[j]), name)
		}
		if !read {
			a.where = Where{Kind: "fold", Name: name}
			a.report(CheckUnreadReg, SevWarn, nil, nil,
				"register is written but never read by any expression (it is still shipped in reports)")
		}
	}
}

// checkReportLiveness: a program with no Report never ships measurements;
// in fold mode the registers also never reset, and in vector mode the
// sample buffer grows without bound — install-blocking. EWMA mode merely
// wastes the measurement machinery — advisory, as it is for a reference taken
// stand-alone, whose mode is the named half's.
func (a *analyzer) checkReportLiveness(instrs []lang.Instr) {
	for _, in := range instrs {
		if _, ok := in.(lang.Report); ok {
			return
		}
	}
	a.where = Where{Kind: "program"}
	switch a.mode {
	case lang.MeasureFold:
		a.report(CheckNoReport, SevError, nil, nil,
			"fold program never reports: registers accumulate forever and measurements never reach the agent")
	case lang.MeasureVector:
		a.report(CheckNoReport, SevError, nil, nil,
			"vector program never reports: the per-packet sample buffer grows without bound")
	default:
		a.report(CheckNoReport, SevWarn, nil, nil,
			"program never reports: measurements never reach the agent")
	}
}

// exprReads reports whether e references the variable name.
func exprReads(e lang.Expr, name string) bool {
	switch n := e.(type) {
	case lang.Var:
		return string(n) == name
	case *lang.Bin:
		return exprReads(n.L, name) || exprReads(n.R, name)
	case *lang.If:
		return exprReads(n.Cond, name) || exprReads(n.Then, name) || exprReads(n.Else, name)
	}
	return false
}

func cloneSt(st []AbsVal) []AbsVal {
	out := make([]AbsVal, len(st))
	copy(out, st)
	return out
}
