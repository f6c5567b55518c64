package lang

import (
	"fmt"
	"math"
)

// The stack VM is the differential reference for the register VM, not an
// engine: nothing the datapath runs is compiled here. It is kept because it
// shares no code with regcompile.go/regvm.go beyond applyBin — a naive
// post-order lowering and a loop that checks everything at run time — so
// FuzzStackVsRegister comparing the two catches a register-compiler or
// register-VM bug that a self-consistent optimizer would hide. (The last
// non-test caller is the benchmark's compile-cost replay; see DESIGN.md §12.)

// OpCode is a bytecode operation.
type OpCode uint8

// Bytecode operations. Binary ops pop two operands and push one; opSelect
// pops (cond, then, else) and pushes the selected value.
const (
	opConst  OpCode = iota // push consts[arg]
	opVar                  // push vars[arg]
	opBin                  // apply BinKind(arg) to top two stack slots
	opSelect               // ternary select
)

// Inst is a single bytecode instruction.
type Inst struct {
	Op  OpCode
	Arg uint16
}

// Code is a compiled expression: a flat instruction stream plus a constant
// pool.
type Code struct {
	Insts    []Inst
	Consts   []float64
	MaxStack int
}

// Compile lowers e to stack bytecode, resolving variable names to slots.
func Compile(e Expr, resolve Resolver) (*Code, error) {
	c := &Code{}
	if _, err := c.emit(e, resolve, 0); err != nil {
		return nil, err
	}
	return c, nil
}

// emit compiles e and returns the stack depth after its value is pushed,
// updating MaxStack. cur is the depth before evaluation.
func (c *Code) emit(e Expr, resolve Resolver, cur int) (int, error) {
	switch n := e.(type) {
	case Const:
		idx := c.constIndex(float64(n))
		c.Insts = append(c.Insts, Inst{opConst, idx})
		return c.bump(cur + 1), nil
	case Var:
		slot, ok := resolve(string(n))
		if !ok {
			return 0, fmt.Errorf("lang: unknown variable %q", string(n))
		}
		if slot < 0 || slot > 0xFFFF {
			return 0, fmt.Errorf("lang: variable slot %d out of range", slot)
		}
		c.Insts = append(c.Insts, Inst{opVar, uint16(slot)})
		return c.bump(cur + 1), nil
	case *Bin:
		if n.Op >= NumBinKinds {
			return 0, fmt.Errorf("lang: invalid binary op %d", n.Op)
		}
		d, err := c.emit(n.L, resolve, cur)
		if err != nil {
			return 0, err
		}
		d, err = c.emit(n.R, resolve, d)
		if err != nil {
			return 0, err
		}
		c.Insts = append(c.Insts, Inst{opBin, uint16(n.Op)})
		return d - 1, nil
	case *If:
		d, err := c.emit(n.Cond, resolve, cur)
		if err != nil {
			return 0, err
		}
		d, err = c.emit(n.Then, resolve, d)
		if err != nil {
			return 0, err
		}
		d, err = c.emit(n.Else, resolve, d)
		if err != nil {
			return 0, err
		}
		c.Insts = append(c.Insts, Inst{opSelect, 0})
		return d - 2, nil
	default:
		return 0, fmt.Errorf("lang: cannot compile %T", e)
	}
}

func (c *Code) bump(d int) int {
	if d > c.MaxStack {
		c.MaxStack = d
	}
	return d
}

func (c *Code) constIndex(v float64) uint16 {
	// By bits, as regcompile.go does: 0 and -0 compare equal and are not the
	// same constant (min, max and the sign of a product tell them apart).
	for i, existing := range c.Consts {
		if math.Float64bits(existing) == math.Float64bits(v) {
			return uint16(i)
		}
	}
	c.Consts = append(c.Consts, v)
	return uint16(len(c.Consts) - 1)
}

// Eval executes the bytecode against the variable table. stack must have at
// least MaxStack capacity; pass nil to allocate one. Every access is checked:
// out-of-range variable slots and const indexes read as 0 and an operand
// underflow returns 0, so a hand-assembled Code cannot trap either.
func (c *Code) Eval(vars []float64, stack []float64) float64 {
	if cap(stack) < c.MaxStack {
		stack = make([]float64, 0, c.MaxStack)
	}
	s := stack[:0]
	for _, in := range c.Insts {
		switch in.Op {
		case opConst:
			if int(in.Arg) < len(c.Consts) {
				s = append(s, c.Consts[in.Arg])
			} else {
				s = append(s, 0)
			}
		case opVar:
			if int(in.Arg) < len(vars) {
				s = append(s, vars[in.Arg])
			} else {
				s = append(s, 0)
			}
		case opBin:
			n := len(s)
			if n < 2 {
				return 0
			}
			s[n-2] = applyBin(BinKind(in.Arg), s[n-2], s[n-1], nil)
			s = s[:n-1]
		case opSelect:
			n := len(s)
			if n < 3 {
				return 0
			}
			cond, then, els := s[n-3], s[n-2], s[n-1]
			if cond != 0 {
				s[n-3] = then
			} else {
				s[n-3] = els
			}
			s = s[:n-2]
		}
	}
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}
