package lang

// Test hooks: constructors and accessors only this package's tests use.

// Le returns l <= r as 0/1.
func Le(l, r Expr) Expr { return &Bin{OpLe, l, r} }

// Ge returns l >= r as 0/1.
func Ge(l, r Expr) Expr { return &Bin{OpGe, l, r} }

// Ne returns l != r as 0/1.
func Ne(l, r Expr) Expr { return &Bin{OpNe, l, r} }

// And returns boolean and as 0/1.
func And(l, r Expr) Expr { return &Bin{OpAnd, l, r} }

// Or returns boolean or as 0/1.
func Or(l, r Expr) Expr { return &Bin{OpOr, l, r} }

// EvalEvents is Eval that also returns the substitutions made on the path
// that produced the value. Both branches of an If are evaluated, as
// everywhere, but only the condition and the selected branch can influence
// the result, so only their events count: the verifier proves properties of
// values, not of work that is discarded.
func EvalEvents(e Expr, env Env) (float64, Events, error) {
	var ev Events
	v, err := eval(e, env, &ev)
	return v, ev, err
}

// NumRegs returns the number of registers.
func (cf *CompiledFold) NumRegs() int { return len(cf.Spec.Regs) }
