package lang

import (
	"fmt"
	"strings"
)

// The validator as it was before it became a walk: every expression's
// variables listed, sorted and de-duplicated, then resolved in that order.
// It is the differential reference TestValidateMatchesReference and
// FuzzValidateVsReference hold Program.Validate, FoldSpec.Validate and
// ValidateControl to — verdict and error text — on every input without a nil
// node (which it does not look for); exported from a _test file so the
// lang_test package sees it too.

// Vars returns the sorted set of variable names referenced by e.
func Vars(e Expr) []string {
	var out []string
	out = collectVars(e, out)
	sortStrings(out)
	dedup := out[:0]
	for i, name := range out {
		if i == 0 || name != out[i-1] {
			dedup = append(dedup, name)
		}
	}
	return dedup
}

func collectVars(e Expr, out []string) []string {
	switch n := e.(type) {
	case Var:
		out = append(out, string(n))
	case *Bin:
		out = collectVars(n.L, out)
		out = collectVars(n.R, out)
	case *If:
		out = collectVars(n.Cond, out)
		out = collectVars(n.Then, out)
		out = collectVars(n.Else, out)
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && strings.Compare(s[j], s[j-1]) < 0; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// RefValidateProgram is the reference Program.Validate.
func RefValidateProgram(p *Program) error {
	var regNames []string
	switch m := p.Measure; m.Mode {
	case MeasureEWMA:
	case MeasureFold:
		if m.Fold == nil {
			return fmt.Errorf("lang: fold mode without a fold spec")
		}
		if err := RefValidateFold(m.Fold); err != nil {
			return err
		}
		regNames = m.Fold.RegNames()
	case MeasureVector:
		if len(m.Fields) == 0 {
			return fmt.Errorf("lang: vector mode without fields")
		}
		for _, f := range m.Fields {
			if f >= NumPktFields {
				return fmt.Errorf("lang: invalid vector field %d", f)
			}
		}
	case MeasureRef:
		if m.Epoch == 0 {
			return fmt.Errorf("lang: reference to epoch 0")
		}
	default:
		return fmt.Errorf("lang: invalid measure mode %d", m.Mode)
	}
	return RefValidateControl(p.Instrs, StdResolver(regNames))
}

// RefValidateFold is the reference FoldSpec.Validate.
func RefValidateFold(f *FoldSpec) error {
	seen := map[string]bool{}
	for _, r := range f.Regs {
		if r.Name == "" {
			return fmt.Errorf("lang: empty register name")
		}
		if Reserved(r.Name) {
			return fmt.Errorf("lang: register %q collides with a built-in variable", r.Name)
		}
		if seen[r.Name] {
			return fmt.Errorf("lang: duplicate register %q", r.Name)
		}
		seen[r.Name] = true
	}
	resolve := StdResolver(f.RegNames())
	for _, a := range f.Updates {
		if !seen[a.Dst] {
			return fmt.Errorf("lang: assignment to undeclared register %q", a.Dst)
		}
		for _, v := range Vars(a.E) {
			if _, ok := resolve(v); !ok {
				return fmt.Errorf("lang: fold references unknown variable %q", v)
			}
		}
	}
	return nil
}

// RefValidateControl is the reference ValidateControl.
func RefValidateControl(instrs []Instr, resolve Resolver) error {
	for _, in := range instrs {
		switch in.(type) {
		case Report:
			continue
		case SetRate, SetCwnd, Wait, WaitRtts:
		default:
			return fmt.Errorf("lang: unknown instruction %T", in)
		}
		for _, v := range Vars(InstrExpr(in)) {
			if _, ok := resolve(v); !ok {
				return fmt.Errorf("lang: program references unknown variable %q", v)
			}
		}
	}
	return nil
}

// DecodeProgram decodes both halves of a wire program and validates neither,
// so the differential tests can put what the decoder accepts in front of the
// validator and its reference alike.
func DecodeProgram(data []byte) (*Program, error) {
	r := reader{data: data}
	p := &Program{}
	if err := r.measure(&p.Measure); err != nil {
		return nil, err
	}
	if err := r.control(p); err != nil {
		return nil, err
	}
	return p, nil
}
