package lang

// StackFold steps a fold on the stack reference: one Code per update, run in
// order against the variable table. It is what CompiledFold.Step is compared
// against, bit for bit, by FuzzStackVsRegister and assertFoldsAgree; exported
// from a _test file so the lang_test package sees it too.
type StackFold struct {
	codes []*Code
	dsts  []int
}

// CompileStackFold validates f and compiles each update with Compile.
func CompileStackFold(f *FoldSpec) (*StackFold, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	resolve := StdResolver(f.RegNames())
	sf := &StackFold{}
	for _, a := range f.Updates {
		code, err := Compile(a.E, resolve)
		if err != nil {
			return nil, err
		}
		slot, _ := resolve(a.Dst)
		sf.codes = append(sf.codes, code)
		sf.dsts = append(sf.dsts, slot)
	}
	return sf, nil
}

// Step folds one packet: vars needs VarTableSize(len(f.Regs)) slots.
func (sf *StackFold) Step(vars []float64) {
	for i, code := range sf.codes {
		vars[sf.dsts[i]] = code.Eval(vars, nil)
	}
}
