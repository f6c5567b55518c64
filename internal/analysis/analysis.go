// Package analysis is a small, self-contained reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, diagnostics,
// `// want`-annotated testdata) used to machine-check the invariants the
// hot paths of this repo rely on but the compiler cannot see:
//
//   - bufrelease: a bufpool.Buf has exactly one owner and one Release
//     (use-after-Release, double-Release, leaked pooled frames).
//   - decoderalias: proto.Decoder results are invalid after the next
//     Unmarshal on the same decoder unless proto.Clone'd.
//   - simdeterminism: the simulator and native-CC packages must stay
//     bit-identical (no wall clock, global rand, goroutines, or map-order
//     dependent event emission).
//   - lockorder: Lock without a matching Unlock/defer, straight-line
//     double-Lock, RWMutex write-lock upgrades, and inconsistent
//     cross-function acquisition order.
//   - dslverify: statically-constructed datapath programs (lang builder
//     chains) must pass the absint Install-gate verifier.
//   - unused: every package-level declaration of a non-test file is
//     reached from a main, an init or a package-level var initializer.
//
// The upstream x/tools module is deliberately not a dependency: the
// analyzers only need parsed+type-checked packages, which the standard
// library provides (go/parser, go/types, and the source importer). See
// load.go for the loader.
//
// Analyzers are conservative by construction — intra-procedural, linear
// control flow, branch state discarded — so they report only what is
// certainly (or near-certainly) a violation and stay zero-false-positive
// on the existing tree. Code that intentionally breaks an invariant (for
// example the real-time Figure 2 echo servers in experiments) carries a
//
//	//lint:ownership <reason>
//
// comment on the offending line or the line above it, which suppresses
// every diagnostic but unused's for that line. A test oracle or fixture
// that only tests call carries a //lint:testsupport directive instead (see
// Unused).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of the invariant it enforces.
	Doc string
	// Run applies the analyzer to one package, reporting violations via
	// pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags  *[]Diagnostic
	loader *Loader
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ownershipDirective is the escape-hatch comment prefix: a line comment
// beginning with it allowlists its own line and the line below, for every
// analyzer but unused (whose directive is testSupportDirective).
const ownershipDirective = "//lint:ownership"

// A directive is one //lint:ownership or //lint:testsupport comment: the
// lines it covers and whether it suppressed anything.
type directive struct {
	kind     string // "ownership" or "testsupport"
	pos      token.Position
	reason   string
	from, to int // covered lines of pos.Filename
	used     bool
}

// directives returns every directive in pkg. A testsupport directive covers
// the line after its comment group: where a declaration it is the doc comment
// of has its name, which is where the unused pass reports it.
func directives(pkg *Package) []*directive {
	var dirs []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir := &directive{kind: "ownership", pos: pkg.Fset.Position(c.Pos())}
				dir.from, dir.to = dir.pos.Line, dir.pos.Line+1
				rest, ok := strings.CutPrefix(c.Text, ownershipDirective)
				if !ok {
					if rest, ok = strings.CutPrefix(c.Text, testSupportDirective); !ok {
						continue
					}
					dir.kind, dir.to = "testsupport", pkg.Fset.Position(cg.End()).Line+1
					dir.from = dir.to
				}
				dir.reason = strings.TrimSpace(rest)
				dirs = append(dirs, dir)
			}
		}
	}
	return dirs
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics sorted by position. Diagnostics a directive covers are
// dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return run(pkgs, analyzers, false)
}

// RunAll applies the full analyzer suite plus directive hygiene: every
// directive must carry a non-empty reason, and must actually suppress at
// least one diagnostic — an allowlist entry that suppresses nothing is stale
// (the code it excused was fixed, moved or gained a caller) and rots into a
// blanket waiver for whatever lands there next. Hygiene findings are
// reported under the directive's kind, "ownership" or "testsupport".
func RunAll(pkgs []*Package) ([]Diagnostic, error) {
	return run(pkgs, All(), true)
}

func run(pkgs []*Package, analyzers []*Analyzer, hygiene bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		raw, err := runAnalyzers(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		dirs := directives(pkg)
	next:
		for _, d := range raw {
			// The last directive covering a line is the one it uses.
			for i := len(dirs) - 1; i >= 0; i-- {
				dir := dirs[i]
				if d.File == dir.pos.Filename && dir.from <= d.Line && d.Line <= dir.to &&
					(dir.kind == "testsupport") == (d.Analyzer == Unused.Name) {
					dir.used = true
					continue next
				}
			}
			diags = append(diags, d)
		}
		if !hygiene {
			continue
		}
		for _, dir := range dirs {
			if dir.reason == "" {
				diags = append(diags, dir.finding(dir.kind+" directive has no reason: state why it is needed"))
			}
			if !dir.used {
				diags = append(diags, dir.finding("stale "+dir.kind+" directive: it suppresses no diagnostic; remove it"))
			}
		}
	}
	sortDiags(diags)
	return diags, nil
}

func (dir *directive) finding(msg string) Diagnostic {
	return Diagnostic{Analyzer: dir.kind, Pos: dir.pos, File: dir.pos.Filename,
		Line: dir.pos.Line, Col: dir.pos.Column, Message: msg}
}

// runAnalyzers applies analyzers to one package, returning every diagnostic
// before directive suppression.
func runAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		var out []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &out,
			loader:    pkg.loader,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		raw = append(raw, out...)
	}
	return raw, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns every analyzer in this suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{BufRelease, DecoderAlias, SimDeterminism, LockOrder, DSLVerify, Unused}
}

// --- shared type helpers ---

// pkgLastSegment reports whether the package path's final segment equals
// name ("github.com/x/internal/bufpool" matches "bufpool"). Matching on the
// tail keeps the analyzers working on testdata packages and forks of the
// module path alike.
func pkgLastSegment(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// namedFrom unwraps pointers and aliases down to a named type, or nil.
func namedFrom(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (through pointers) is the named type
// pkgName.typeName, where pkgName matches the final import-path segment.
func isNamedType(t types.Type, pkgName, typeName string) bool {
	n := namedFrom(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == typeName && pkgLastSegment(n.Obj().Pkg().Path(), pkgName)
}

// pkgFuncCall reports whether call invokes the package-level function
// pkgName.funcName (pkgName matched on the import path's final segment),
// returning the resolved *types.Func when it does.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgName, funcName string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Type() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return false
		}
	}
	return fn.Name() == funcName && pkgLastSegment(fn.Pkg().Path(), pkgName)
}

// calleeFunc resolves the called function object of call, or nil for
// indirect calls, builtins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// rootIdent returns the leftmost identifier of a selector chain (`l` for
// `l.a.b`), or nil when the chain is rooted in a call or index expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
