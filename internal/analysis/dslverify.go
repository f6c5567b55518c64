package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
)

// DSLVerify runs the Install-gate program verifier (lang/absint) at lint
// time over every datapath program that is constructed statically: a
// lang.NewProgram()...Build()/MustBuild() builder chain whose expressions
// are built entirely from the lang constructors (C, V, Add, Ite, ...) with
// compile-time-constant leaves. The datapath refuses such programs at
// Install; this pass surfaces the same refusal at the source line of the
// offending instruction, before anything runs.
//
// The reconstruction is conservative: a chain routed through a variable, a
// constructor argument that is not a Go constant, or any shape the decoder
// does not recognize silently skips the whole site (the Install gate still
// covers it at runtime). Only install-blocking (error-severity) findings
// are reported; advisory warnings stay a runtime concern.
var DSLVerify = &Analyzer{
	Name: "dslverify",
	Doc:  "verify statically-constructed datapath programs with the absint Install-gate checks",
	Run:  runDSLVerify,
}

func runDSLVerify(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !builderMethodCall(pass.TypesInfo, call, "Build") &&
				!builderMethodCall(pass.TypesInfo, call, "MustBuild") {
				return true
			}
			d := &dslDecoder{pass: pass}
			prog, ok := d.decodeChain(call)
			if !ok {
				return true
			}
			rep, err := absint.Analyze(prog, absint.Datapath())
			if err != nil {
				// Structurally invalid: MustBuild panics at init and Build
				// errors out; both fail long before Install. Not our beat.
				return true
			}
			for _, fd := range rep.Errors() {
				pos := call.Pos()
				switch fd.Where.Kind {
				case "instr":
					if fd.Where.Index < len(d.instrPos) {
						pos = d.instrPos[fd.Where.Index]
					}
				case "update":
					if fd.Where.Index < len(d.updatePos) {
						pos = d.updatePos[fd.Where.Index]
					}
				}
				pass.Reportf(pos, "datapath program fails verification: %s: %s (%s at %s)",
					fd.Check, fd.Message, fd.Where, fd.Path)
			}
			return true
		})
	}
	return nil
}

// builderMethodCall reports whether call invokes lang's (*Builder).<name>.
func builderMethodCall(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedType(sig.Recv().Type(), "lang", "Builder")
}

// dslDecoder rebuilds a lang.Program from a builder-chain AST, recording
// the source position of each instruction and fold update so findings land
// on the line that wrote them.
type dslDecoder struct {
	pass      *Pass
	instrPos  []token.Pos
	updatePos []token.Pos
}

// decodeChain walks a Build/MustBuild call back through its receiver chain
// to lang.NewProgram() and replays the calls onto a real Builder. Returns
// ok=false for anything it cannot prove statically.
func (d *dslDecoder) decodeChain(end *ast.CallExpr) (*lang.Program, bool) {
	// Collect the chain innermost-last.
	var calls []*ast.CallExpr
	cur := end
	for {
		sel, ok := ast.Unparen(cur.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		recv, ok := ast.Unparen(sel.X).(*ast.CallExpr)
		if !ok {
			return nil, false // builder held in a variable: dynamic
		}
		if pkgFuncCall(d.pass.TypesInfo, recv, "lang", "NewProgram") {
			break
		}
		calls = append(calls, cur)
		cur = recv
	}
	calls = append(calls, cur)

	b := lang.NewProgram()
	for i := len(calls) - 1; i >= 0; i-- {
		c := calls[i]
		fn := calleeFunc(d.pass.TypesInfo, c)
		if fn == nil {
			return nil, false
		}
		// Anchor instruction findings on the method name, not the chain
		// head: `.Rate(...)` on its own line should carry its own finding.
		pos := c.Pos()
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
			pos = sel.Sel.Pos()
		}
		switch fn.Name() {
		case "MeasureEWMA":
			b.MeasureEWMA()
		case "MeasureFold":
			if len(c.Args) != 1 {
				return nil, false
			}
			spec, ok := d.decodeFoldSpec(c.Args[0])
			if !ok {
				return nil, false
			}
			b.MeasureFold(spec)
		case "MeasureVector":
			if c.Ellipsis.IsValid() {
				return nil, false
			}
			var fields []lang.Field
			for _, a := range c.Args {
				v, ok := constFloat(d.pass.TypesInfo, a)
				if !ok {
					return nil, false
				}
				fields = append(fields, lang.Field(v))
			}
			b.MeasureVector(fields...)
		case "Rate", "Cwnd", "WaitExpr", "WaitRttsExpr":
			if len(c.Args) != 1 {
				return nil, false
			}
			e, ok := d.decodeExpr(c.Args[0])
			if !ok {
				return nil, false
			}
			switch fn.Name() {
			case "Rate":
				b.Rate(e)
			case "Cwnd":
				b.Cwnd(e)
			case "WaitExpr":
				b.WaitExpr(e)
			case "WaitRttsExpr":
				b.WaitRttsExpr(e)
			}
			d.instrPos = append(d.instrPos, pos)
		case "Wait", "WaitRtts":
			if len(c.Args) != 1 {
				return nil, false
			}
			v, ok := constFloat(d.pass.TypesInfo, c.Args[0])
			if !ok {
				return nil, false
			}
			if fn.Name() == "Wait" {
				b.Wait(v)
			} else {
				b.WaitRtts(v)
			}
			d.instrPos = append(d.instrPos, pos)
		case "Report":
			b.Report()
			d.instrPos = append(d.instrPos, pos)
		case "UrgentECN":
			b.UrgentECN()
		case "Build", "MustBuild":
			// End of chain; nothing to replay.
		default:
			return nil, false
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, false
	}
	return p, true
}

// decodeExpr rebuilds a lang.Expr from constructor calls (lang.C, lang.V,
// the binary helpers, lang.Ite) with compile-time-constant leaves.
func (d *dslDecoder) decodeExpr(e ast.Expr) (lang.Expr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn := calleeFunc(d.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !pkgLastSegment(fn.Pkg().Path(), "lang") {
		return nil, false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil, false
	}
	bin := func(op lang.BinKind) (lang.Expr, bool) {
		if len(call.Args) != 2 {
			return nil, false
		}
		l, ok := d.decodeExpr(call.Args[0])
		if !ok {
			return nil, false
		}
		r, ok := d.decodeExpr(call.Args[1])
		if !ok {
			return nil, false
		}
		return &lang.Bin{Op: op, L: l, R: r}, true
	}
	switch fn.Name() {
	case "C":
		if len(call.Args) != 1 {
			return nil, false
		}
		v, ok := constFloat(d.pass.TypesInfo, call.Args[0])
		if !ok {
			return nil, false
		}
		return lang.Const(v), true
	case "V":
		if len(call.Args) != 1 {
			return nil, false
		}
		s, ok := constString(d.pass.TypesInfo, call.Args[0])
		if !ok {
			return nil, false
		}
		return lang.Var(s), true
	case "Add":
		return bin(lang.OpAdd)
	case "Sub":
		return bin(lang.OpSub)
	case "Mul":
		return bin(lang.OpMul)
	case "Div":
		return bin(lang.OpDiv)
	case "Min":
		return bin(lang.OpMin)
	case "Max":
		return bin(lang.OpMax)
	case "Lt":
		return bin(lang.OpLt)
	case "Le":
		return bin(lang.OpLe)
	case "Gt":
		return bin(lang.OpGt)
	case "Ge":
		return bin(lang.OpGe)
	case "Eq":
		return bin(lang.OpEq)
	case "Ne":
		return bin(lang.OpNe)
	case "And":
		return bin(lang.OpAnd)
	case "Or":
		return bin(lang.OpOr)
	case "Ite":
		if len(call.Args) != 3 {
			return nil, false
		}
		cond, ok := d.decodeExpr(call.Args[0])
		if !ok {
			return nil, false
		}
		then, ok := d.decodeExpr(call.Args[1])
		if !ok {
			return nil, false
		}
		els, ok := d.decodeExpr(call.Args[2])
		if !ok {
			return nil, false
		}
		return &lang.If{Cond: cond, Then: then, Else: els}, true
	}
	return nil, false
}

// decodeFoldSpec rebuilds a *lang.FoldSpec from a `&lang.FoldSpec{...}`
// composite literal with keyed fields and literal Regs/Updates slices.
func (d *dslDecoder) decodeFoldSpec(e ast.Expr) (*lang.FoldSpec, bool) {
	un, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, false
	}
	lit, ok := un.X.(*ast.CompositeLit)
	if !ok || !isNamedType(d.pass.TypesInfo.TypeOf(lit), "lang", "FoldSpec") {
		return nil, false
	}
	spec := &lang.FoldSpec{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return nil, false
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			return nil, false
		}
		inner, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			return nil, false
		}
		switch key.Name {
		case "Regs":
			for _, rel := range inner.Elts {
				rd, ok := d.decodeRegDef(rel)
				if !ok {
					return nil, false
				}
				spec.Regs = append(spec.Regs, rd)
			}
		case "Updates":
			for _, uel := range inner.Elts {
				up, ok := d.decodeAssign(uel)
				if !ok {
					return nil, false
				}
				spec.Updates = append(spec.Updates, up)
				d.updatePos = append(d.updatePos, uel.Pos())
			}
		default:
			return nil, false
		}
	}
	return spec, true
}

func (d *dslDecoder) decodeRegDef(e ast.Expr) (lang.RegDef, bool) {
	name, init, ok := d.literalFields(e, "Name", "Init")
	if !ok {
		return lang.RegDef{}, false
	}
	n, ok := constString(d.pass.TypesInfo, name)
	if !ok {
		return lang.RegDef{}, false
	}
	rd := lang.RegDef{Name: n}
	if init != nil {
		v, ok := constFloat(d.pass.TypesInfo, init)
		if !ok {
			return lang.RegDef{}, false
		}
		rd.Init = v
	}
	return rd, true
}

func (d *dslDecoder) decodeAssign(e ast.Expr) (lang.Assign, bool) {
	dst, expr, ok := d.literalFields(e, "Dst", "E")
	if !ok || expr == nil {
		return lang.Assign{}, false
	}
	n, ok := constString(d.pass.TypesInfo, dst)
	if !ok {
		return lang.Assign{}, false
	}
	ae, ok := d.decodeExpr(expr)
	if !ok {
		return lang.Assign{}, false
	}
	return lang.Assign{Dst: n, E: ae}, true
}

// literalFields extracts the two named fields of a 2-field struct literal,
// accepting both keyed and positional forms. The first field is required.
func (d *dslDecoder) literalFields(e ast.Expr, f1, f2 string) (v1, v2 ast.Expr, ok bool) {
	lit, litOK := ast.Unparen(e).(*ast.CompositeLit)
	if !litOK || len(lit.Elts) == 0 || len(lit.Elts) > 2 {
		return nil, nil, false
	}
	if kv, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
		for _, el := range lit.Elts {
			kv, keyed = el.(*ast.KeyValueExpr)
			if !keyed {
				return nil, nil, false
			}
			id, idOK := kv.Key.(*ast.Ident)
			if !idOK {
				return nil, nil, false
			}
			switch id.Name {
			case f1:
				v1 = kv.Value
			case f2:
				v2 = kv.Value
			default:
				return nil, nil, false
			}
		}
	} else {
		v1 = lit.Elts[0]
		if len(lit.Elts) == 2 {
			v2 = lit.Elts[1]
		}
	}
	if v1 == nil {
		return nil, nil, false
	}
	return v1, v2, true
}

// constFloat resolves e to a compile-time numeric constant.
func constFloat(info *types.Info, e ast.Expr) (float64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		return v, true
	}
	return 0, false
}

// constString resolves e to a compile-time string constant.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
