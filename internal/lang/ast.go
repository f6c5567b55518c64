// Package lang implements the CCP datapath language from the paper's §2:
//
//   - Control programs (Table 2): sequences of Rate/Cwnd/Wait/WaitRtts/Report
//     primitives that the datapath executes, letting algorithms like BBR
//     specify precise sending patterns and measurement intervals without a
//     round trip to user space per action.
//   - Fold functions (§2.4): per-packet measurement summarization compiled to
//     a small register bytecode the datapath runs in O(1) state per flow.
//   - Vector measurements (§2.4): a per-packet field list the datapath
//     appends to and ships to user space at Report time.
//
// Expressions are pure (no side effects); all state lives in named fold
// registers updated by explicit assignments. Division by zero evaluates to
// zero by definition: the datapath must never trap (§2.2 notes that such
// exceptions crash kernels; our VM makes them total instead).
package lang

import (
	"fmt"
	"math"
)

// Expr is a pure arithmetic/boolean expression over named variables.
// Booleans are represented numerically: 0 is false, anything else is true;
// comparison operators yield exactly 0 or 1.
type Expr interface {
	exprNode()
	String() string
}

// Const is a numeric literal.
type Const float64

// Var references a variable by name: a packet field ("pkt.rtt"), a flow
// variable ("flow.cwnd"), or a fold register ("minrtt").
type Var string

// BinKind enumerates binary operators.
type BinKind uint8

// Binary operators. Div is total: x/0 == 0.
const (
	OpAdd BinKind = iota
	OpSub
	OpMul
	OpDiv
	OpMin
	OpMax
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
	// NumBinKinds is the number of binary operators: the bound of every
	// per-operator table and of every walk over the operators.
	NumBinKinds
)

var binNames = [...]string{"+", "-", "*", "/", "min", "max", "<", "<=", ">", ">=", "==", "!=", "and", "or"}

func (k BinKind) String() string {
	if int(k) < len(binNames) {
		return binNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Bin applies Op to L and R.
type Bin struct {
	Op   BinKind
	L, R Expr
}

// If selects Then when Cond is true (non-zero), else Else. Both branches are
// evaluated (expressions are pure, so this only costs time, never safety).
type If struct {
	Cond, Then, Else Expr
}

func (Const) exprNode() {}
func (Var) exprNode()   {}
func (*Bin) exprNode()  {}
func (*If) exprNode()   {}

func (c Const) String() string { return trimFloat(float64(c)) }
func (v Var) String() string   { return string(v) }
func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Op, b.L, b.R)
}
func (i *If) String() string {
	return fmt.Sprintf("(if %s %s %s)", i.Cond, i.Then, i.Else)
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// Convenience constructors keep algorithm code readable.

// C returns a constant expression.
func C(v float64) Expr { return Const(v) }

// V returns a variable reference.
func V(name string) Expr { return Var(name) }

// Add returns l + r.
func Add(l, r Expr) Expr { return &Bin{OpAdd, l, r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return &Bin{OpSub, l, r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return &Bin{OpMul, l, r} }

// Div returns l / r, with x/0 defined as 0.
func Div(l, r Expr) Expr { return &Bin{OpDiv, l, r} }

// Min returns min(l, r).
func Min(l, r Expr) Expr { return &Bin{OpMin, l, r} }

// Max returns max(l, r).
func Max(l, r Expr) Expr { return &Bin{OpMax, l, r} }

// Lt returns l < r as 0/1.
func Lt(l, r Expr) Expr { return &Bin{OpLt, l, r} }

// Gt returns l > r as 0/1.
func Gt(l, r Expr) Expr { return &Bin{OpGt, l, r} }

// Eq returns l == r as 0/1.
func Eq(l, r Expr) Expr { return &Bin{OpEq, l, r} }

// Ite returns a conditional expression.
func Ite(cond, then, els Expr) Expr { return &If{cond, then, els} }

// Env resolves variable values during tree-walking evaluation (Eval, the
// reference the register VM is tested against).
type Env func(name string) (float64, bool)

// Events counts the defensive substitutions that make the language total.
// They are part of an operator's definition, so applyBin reports them where
// it makes them and everything that needs them (the verifier's soundness
// lane, the operator table test) reads them from there.
type Events struct {
	DivZero int // x/0 evaluated to 0
	Squash  int // a NaN or ±Inf result replaced by 0
}

func (ev *Events) add(o Events) {
	if ev != nil {
		ev.DivZero += o.DivZero
		ev.Squash += o.Squash
	}
}

// Eval evaluates e under env: the reference meaning of an expression, which
// the register VM is tested against. Unknown variables are an error;
// arithmetic is total (x/0 == 0, NaNs are squashed to 0).
//
//lint:testsupport the oracle of lang's VM and operator tests, absint's interval soundness tests, algorithms' unit tests and core's tests
func Eval(e Expr, env Env) (float64, error) {
	return eval(e, env, nil)
}

func eval(e Expr, env Env, ev *Events) (float64, error) {
	switch n := e.(type) {
	case Const:
		return float64(n), nil
	case Var:
		v, ok := env(string(n))
		if !ok {
			return 0, fmt.Errorf("lang: unknown variable %q", string(n))
		}
		return v, nil
	case *Bin:
		l, err := eval(n.L, env, ev)
		if err != nil {
			return 0, err
		}
		r, err := eval(n.R, env, ev)
		if err != nil {
			return 0, err
		}
		return applyBin(n.Op, l, r, ev), nil
	case *If:
		c, err := eval(n.Cond, env, ev)
		if err != nil {
			return 0, err
		}
		var thenEv, elseEv Events
		t, err := eval(n.Then, env, &thenEv)
		if err != nil {
			return 0, err
		}
		f, err := eval(n.Else, env, &elseEv)
		if err != nil {
			return 0, err
		}
		if c != 0 { // NaN != 0, so a NaN condition selects Then
			ev.add(thenEv)
			return t, nil
		}
		ev.add(elseEv)
		return f, nil
	default:
		return 0, fmt.Errorf("lang: unknown expression node %T", e)
	}
}

// applyBin is the definition of every binary operator: the one place a
// BinKind is given a concrete value. The tree-walker and the stack reference
// call it per node, the register compiler calls it to fold constants, and the
// register VM's opcodes are tested against it operator by operator
// (TestEveryOperatorEverywhere). ev, when not nil, counts the substitutions.
func applyBin(op BinKind, l, r float64, ev *Events) float64 {
	var v float64
	switch op {
	case OpAdd:
		v = l + r
	case OpSub:
		v = l - r
	case OpMul:
		v = l * r
	case OpDiv:
		if r == 0 {
			if ev != nil {
				ev.DivZero++
			}
			return 0
		}
		v = l / r
	case OpMin:
		v = math.Min(l, r)
	case OpMax:
		v = math.Max(l, r)
	case OpLt:
		v = b2f(l < r)
	case OpLe:
		v = b2f(l <= r)
	case OpGt:
		v = b2f(l > r)
	case OpGe:
		v = b2f(l >= r)
	case OpEq:
		v = b2f(l == r)
	case OpNe:
		v = b2f(l != r)
	case OpAnd:
		v = b2f(l != 0 && r != 0)
	case OpOr:
		v = b2f(l != 0 || r != 0)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if ev != nil {
			ev.Squash++
		}
		return 0
	}
	return v
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// exprCheck is the validation walk over one expression: no list of its
// variables is built. Of the variables resolve does not know it keeps the
// lexicographically smallest — the one a sorted listing would meet first, so
// the name in the error does not depend on the expression's shape — and it
// notes a nil node anywhere in the tree.
type exprCheck struct {
	unknown    string
	hasUnknown bool // unknown may be the empty name
	nilNode    bool
}

// walk takes resolve as an argument instead of keeping it beside unknown:
// the name ends up in an error, and escape analysis, which sees a struct as
// one place, would send a scope's method value to the heap with it.
func (c *exprCheck) walk(e Expr, resolve Resolver) {
	switch n := e.(type) {
	case Const:
	case Var:
		if _, ok := resolve(string(n)); !ok && (!c.hasUnknown || string(n) < c.unknown) {
			c.unknown, c.hasUnknown = string(n), true
		}
	case *Bin:
		if n == nil {
			c.nilNode = true
			return
		}
		c.walk(n.L, resolve)
		c.walk(n.R, resolve)
	case *If:
		if n == nil {
			c.nilNode = true
			return
		}
		c.walk(n.Cond, resolve)
		c.walk(n.Then, resolve)
		c.walk(n.Else, resolve)
	default:
		c.nilNode = true // the four node types are the only non-nil Exprs
	}
}
