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
// register and references only resolvable variables.
func (f *FoldSpec) Validate() error {
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
	resolve := StdResolver(f.regNames())
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

func (f *FoldSpec) regNames() []string {
	names := make([]string, len(f.Regs))
	for i, r := range f.Regs {
		names[i] = r.Name
	}
	return names
}

// RegNames returns the register names in declaration (report) order.
func (f *FoldSpec) RegNames() []string { return f.regNames() }

// Backend selects the execution engine for compiled folds and expressions.
// The register VM is the default per-ACK engine; the stack interpreter is
// kept as the reference implementation the differential fuzz target
// compares against (and as an escape hatch).
type Backend uint8

const (
	// BackendRegister runs the three-address register VM (regvm.go).
	BackendRegister Backend = iota
	// BackendStack runs the reference stack interpreter (compile.go).
	BackendStack
)

// FoldCode is a FoldSpec compiled for both engines and nothing else: no
// backend choice, no scratch. Nothing writes to it after CompileFoldCode
// returns, so any number of CompiledFolds, on any goroutines, may Bind to one
// FoldCode and Step at the same time.
type FoldCode struct {
	Spec     *FoldSpec
	reg      *RegCode // whole fold body as one register program, scratchless
	codes    []*Code  // stack reference: one program per update
	dsts     []int    // variable-table slots of each update's destination
	maxStack int
}

// CompiledFold is a FoldCode bound to a backend for per-ACK execution, with
// the scratch that backend mutates. The scratch makes a CompiledFold private
// to one goroutine at a time; share the FoldCode instead.
type CompiledFold struct {
	*FoldCode
	backend Backend
	stack   []float64 // stack backend's operand stack
	frame   []float64 // register backend's staging frame for short tables
}

// CompileFold validates and compiles f for the default register backend.
func CompileFold(f *FoldSpec) (*CompiledFold, error) {
	return CompileFoldBackend(f, BackendRegister)
}

// CompileFoldBackend validates and compiles f, selecting the Step engine.
// Both engines are always compiled — the stack programs double as the
// reference for differential testing — so backend choice never changes
// what validates.
func CompileFoldBackend(f *FoldSpec, backend Backend) (*CompiledFold, error) {
	fc, err := CompileFoldCode(f)
	if err != nil {
		return nil, err
	}
	return fc.Bind(backend), nil
}

// CompileFoldCode validates f and compiles it for both engines.
func CompileFoldCode(f *FoldSpec) (*FoldCode, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	resolve := StdResolver(f.regNames())
	fc := &FoldCode{Spec: f}
	for _, a := range f.Updates {
		code, err := Compile(a.E, resolve)
		if err != nil {
			return nil, err
		}
		slot, _ := resolve(a.Dst)
		fc.codes = append(fc.codes, code)
		fc.dsts = append(fc.dsts, slot)
		if code.MaxStack > fc.maxStack {
			fc.maxStack = code.MaxStack
		}
	}
	reg, err := compileFoldReg(f)
	if err != nil {
		return nil, err
	}
	fc.reg = reg
	return fc, nil
}

// Bind returns a CompiledFold that steps fc on the given backend.
func (fc *FoldCode) Bind(backend Backend) *CompiledFold {
	cf := &CompiledFold{FoldCode: fc, backend: backend}
	if backend == BackendStack {
		cf.stack = make([]float64, 0, fc.maxStack)
	}
	return cf
}

// NumRegs returns the number of registers.
func (fc *FoldCode) NumRegs() int { return len(fc.Spec.Regs) }

// Backend returns the engine Step dispatches to.
func (cf *CompiledFold) Backend() Backend { return cf.backend }

// FrameLen returns the register-VM frame size: the variable table plus the
// fold's temporaries. Callers that size vars to FrameLen (instead of the
// minimum VarTableSize) get the zero-copy Step fast path; the extra slots
// are scratch the datapath never reads.
func (fc *FoldCode) FrameLen() int { return fc.reg.FrameLen }

// InitRegs resets the register slots of vars to their declared initial
// values. vars must be a full variable table (VarTableSize(NumRegs())).
func (fc *FoldCode) InitRegs(vars []float64) {
	for i, r := range fc.Spec.Regs {
		vars[RegSlot(i)] = r.Init
	}
}

// Step folds one packet into the registers. vars holds the current packet
// fields, flow variables, and registers (at least VarTableSize(NumRegs())
// slots); register slots are updated in place. Allocation-free on both
// backends; on the register backend, vars of FrameLen() slots additionally
// skip the staging copy and touch nothing but vars and the shared code.
func (cf *CompiledFold) Step(vars []float64) {
	if cf.backend == BackendStack {
		for i, code := range cf.codes {
			vars[cf.dsts[i]] = code.Eval(vars, cf.stack)
		}
		return
	}
	if len(vars) >= cf.reg.FrameLen {
		cf.reg.Run(vars)
		return
	}
	// vars covers the variable table but not the temp slots: stage into this
	// fold's own frame (made on first use, so Step stays allocation-free
	// after it) and copy the register slots that fit back (an undersized
	// table simply cannot observe the trailing registers).
	if cf.frame == nil {
		cf.frame = make([]float64, cf.reg.FrameLen)
	}
	f := cf.reg.shortFrame(vars, cf.frame)
	cf.reg.Run(f)
	if lo, hi := RegSlot(0), min(cf.reg.NVars, len(vars)); hi > lo {
		copy(vars[lo:hi], f[lo:hi])
	}
}

// ReadRegs copies the register values out of vars in declaration order,
// appending to dst.
func (fc *FoldCode) ReadRegs(vars []float64, dst []float64) []float64 {
	for i := range fc.Spec.Regs {
		dst = append(dst, vars[RegSlot(i)])
	}
	return dst
}
