package lang

import "fmt"

// RegDef declares a fold register: named state initialized to Init each time
// the fold is (re)started — at install and after every Report.
type RegDef struct {
	Name string
	Init float64
}

// Assign updates register Dst with the value of E. Assignments run in order;
// later assignments observe earlier ones within the same packet (matching
// the paper's Vegas fold example, where inQ uses the just-updated baseRtt).
type Assign struct {
	Dst string
	E   Expr
}

// FoldSpec is a fold function (§2.4): bounded per-flow measurement state
// plus an update rule applied per acknowledged packet in the datapath.
//
// A FoldSpec, and every expression under it, is immutable once it has been
// handed to a Builder, to Flow.Install or to a compiler: algorithms install
// one package-level spec from every flow, and the datapath shares one decoded
// spec (and its compiled code) between all flows running it. To change a
// fold, build a new one.
type FoldSpec struct {
	Regs    []RegDef
	Updates []Assign
}

// Validate checks register naming and that every update targets a declared
// register and is a whole expression over resolvable variables.
func (f *FoldSpec) Validate() error {
	_, err := f.validate()
	return err
}

// validate is Validate, returning the scope the control half resolves in.
func (f *FoldSpec) validate() (regScope, error) {
	scope := newRegScope(len(f.Regs))
	for i, r := range f.Regs {
		if r.Name == "" {
			return scope, fmt.Errorf("lang: empty register name")
		}
		if Reserved(r.Name) {
			return scope, fmt.Errorf("lang: register %q collides with a built-in variable", r.Name)
		}
		if _, dup := scope.reg(r.Name); dup {
			return scope, fmt.Errorf("lang: duplicate register %q", r.Name)
		}
		scope.declare(f.Regs[:i+1])
	}
	resolve := scope.resolve
	for i, a := range f.Updates {
		if _, ok := scope.reg(a.Dst); !ok {
			return scope, fmt.Errorf("lang: assignment to undeclared register %q", a.Dst)
		}
		var c exprCheck
		c.walk(a.E, resolve)
		if c.nilNode {
			return scope, fmt.Errorf("lang: nil expression in fold update %d (%s)", i, a.Dst)
		}
		if c.hasUnknown {
			return scope, fmt.Errorf("lang: fold references unknown variable %q", c.unknown)
		}
	}
	return scope, nil
}

func (f *FoldSpec) regNames() []string {
	names := make([]string, len(f.Regs))
	for i, r := range f.Regs {
		names[i] = r.Name
	}
	return names
}

// RegNames returns the register names in declaration (report) order.
func (f *FoldSpec) RegNames() []string { return f.regNames() }

// CompiledFold is a FoldSpec lowered to one register program. Nothing writes
// to it after CompileFold returns — all mutable state is the caller's variable
// table — so any number of flows, on any goroutines, may Step one CompiledFold
// at the same time.
type CompiledFold struct {
	Spec *FoldSpec
	reg  *RegCode // every update, in order
}

// CompileFold validates f and compiles its body for the register VM.
func CompileFold(f *FoldSpec) (*CompiledFold, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	reg, err := compileFoldReg(f)
	if err != nil {
		return nil, err
	}
	return &CompiledFold{Spec: f, reg: reg}, nil
}

// WithInits returns cf's code under a spec that differs from cf's only in
// where the registers start: register i starts from the Init field of data at
// inits[i], data being a measure half SameShape as the one cf was compiled
// from and inits its MeasureInits. The Inits are read in InitRegs and nowhere
// in the compiled code, so the code — and the updates, and the names — are
// shared, not copied; cf and its spec are not written.
func (cf *CompiledFold) WithInits(data []byte, inits []int) *CompiledFold {
	regs := make([]RegDef, len(cf.Spec.Regs))
	for i, r := range cf.Spec.Regs {
		regs[i] = RegDef{Name: r.Name, Init: initAt(data, inits[i])}
	}
	return &CompiledFold{Spec: &FoldSpec{Regs: regs, Updates: cf.Spec.Updates}, reg: cf.reg}
}

// FrameLen returns the register-VM frame size: the variable table plus the
// fold's temporaries. Callers size vars to FrameLen so Step runs in place; the
// slots past VarTableSize are scratch the datapath never reads.
func (cf *CompiledFold) FrameLen() int { return cf.reg.FrameLen }

// InitRegs resets the register slots of vars to their declared initial
// values. vars must be a full variable table (VarTableSize(NumRegs())).
func (cf *CompiledFold) InitRegs(vars []float64) {
	for i, r := range cf.Spec.Regs {
		vars[RegSlot(i)] = r.Init
	}
}

// Step folds one packet into the registers. vars holds the current packet
// fields, flow variables, and registers; register slots are updated in place.
// With FrameLen() slots Step touches nothing but vars and allocates nothing.
// A shorter table gets the same values through a frame of this call's own:
// missing slots read as 0 and registers that do not fit are dropped.
func (cf *CompiledFold) Step(vars []float64) {
	if len(vars) >= cf.reg.FrameLen {
		cf.reg.Run(vars)
		return
	}
	f := cf.reg.shortFrame(vars)
	cf.reg.Run(f)
	if lo, hi := RegSlot(0), min(cf.reg.NVars, len(vars)); hi > lo {
		copy(vars[lo:hi], f[lo:hi])
	}
}

// ReadRegs copies the register values out of vars in declaration order,
// appending to dst.
func (cf *CompiledFold) ReadRegs(vars []float64, dst []float64) []float64 {
	for i := range cf.Spec.Regs {
		dst = append(dst, vars[RegSlot(i)])
	}
	return dst
}
