package analysis

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// Unused reports each package-level func, method, type, const or var of a
// non-test file that no main, init function or package-level var
// initializer reaches (a blank var's type included: `var _ I = (*T)(nil)`
// keeps I). Reaching a declaration reaches what its syntax references, an
// instance counting as its generic origin, and a named type's methods whose
// names are in the method set of any interface type in the program, standard
// library included: an interface call names no concrete method. The program
// is the whole module whatever was loaded (or the testdata packages a test
// registered), so a narrow run reports what ./... reports. Tests are not
// callers: a test oracle or fixture other packages' tests share carries
// `//lint:testsupport <the tests it serves>` in its doc comment, covering the
// declaration, what it references and, on a type, every method.
var Unused = &Analyzer{
	Name: "unused",
	Doc:  "report package-level declarations that no main, init or package-level var initializer reaches",
	Run:  runUnused,
}

const testSupportDirective = "//lint:testsupport"

func runUnused(pass *Pass) error {
	dead, err := unreached(pass.loader)
	if err != nil {
		return err
	}
	for obj := range dead {
		if name := obj.Name(); obj.Pkg() == pass.Pkg {
			if fn, ok := obj.(*types.Func); ok && recvType(fn) != nil {
				name = recvType(fn).Name() + "." + name
			}
			pass.Reportf(obj.Pos(), "%s is unused: no main, init or package-level var initializer reaches it", name)
		}
	}
	return nil
}

// A decl is the syntax that reaching a declared object scans.
type decl struct {
	info    *types.Info
	nodes   []ast.Node
	support bool // under //lint:testsupport
}

// reachWalk is one reachability computation over a program.
type reachWalk struct {
	decls  map[types.Object]decl
	ifaces map[string]bool // method names of every interface type
	seen   map[types.Object]bool
	queue  []types.Object
	all    bool // reaching a named type reaches every method (test support)
}

// unreached returns the declared objects of the loader's program that the
// unused pass reports, computed once per loader.
func unreached(l *Loader) (map[types.Object]bool, error) {
	if l.unreached != nil {
		return l.unreached, nil
	}
	var pkgs []*Package
	var err error
	if len(l.extra) == 0 {
		pkgs, err = l.Load("./...")
	}
	for path, dir := range l.extra {
		var pkg *Package
		if pkg, err = l.check(path, dir, nil); err != nil {
			break
		}
		pkgs = append(pkgs, pkg)
	}
	if err != nil {
		return nil, err
	}

	w := &reachWalk{decls: map[types.Object]decl{}, ifaces: map[string]bool{}, seen: map[types.Object]bool{}}
	imported := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		w.addImported(pkg.Types, imported)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				w.addIfaces(tv.Type)
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				for _, root := range w.declare(pkg, d) {
					w.scan(pkg.Info, root)
				}
			}
		}
	}
	w.drain()
	live := maps.Clone(w.seen)
	w.all = true
	for obj, d := range w.decls {
		if d.support {
			w.reach(obj)
		}
	}
	w.drain()

	dead := map[types.Object]bool{}
	for obj, d := range w.decls {
		fn, _ := obj.(*types.Func)
		withType := fn != nil && recvType(fn) != nil && !live[recvType(fn)] // reported with its type
		if !live[obj] && (!w.seen[obj] || d.support) && obj.Name() != "_" && !withType {
			dead[obj] = true
		}
	}
	l.unreached = dead
	return dead, nil
}

// declare records the objects d declares and returns the syntax that is a
// root: a main or init function, or a package-level var initializer.
func (w *reachWalk) declare(pkg *Package, d ast.Decl) (roots []ast.Node) {
	add := func(id *ast.Ident, doc *ast.CommentGroup, nodes ...ast.Node) {
		if obj := pkg.Info.Defs[id]; obj != nil {
			support := doc != nil && slices.ContainsFunc(doc.List, func(c *ast.Comment) bool {
				return strings.HasPrefix(c.Text, testSupportDirective)
			})
			w.decls[obj] = decl{info: pkg.Info, nodes: nodes, support: support}
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
			return []ast.Node{d}
		}
		add(d.Name, d.Doc, d)
	case *ast.GenDecl:
		var last ast.Node // the spec an implicit const expression repeats
		for _, s := range d.Specs {
			var doc *ast.CommentGroup // a lone spec's, unless it has its own
			if len(d.Specs) == 1 {
				doc = d.Doc
			}
			switch s := s.(type) {
			case *ast.TypeSpec:
				add(s.Name, cmp.Or(s.Doc, doc), s)
			case *ast.ValueSpec:
				nodes := []ast.Node{s}
				if len(s.Values) > 0 {
					last = s
				} else if last != nil {
					nodes = append(nodes, last)
				}
				for _, id := range s.Names {
					add(id, cmp.Or(s.Doc, doc), nodes...)
				}
				if d.Tok == token.VAR {
					for _, v := range s.Values {
						roots = append(roots, v)
					}
					if s.Type != nil && len(s.Names) == 1 && s.Names[0].Name == "_" {
						roots = append(roots, s.Type)
					}
				}
			}
		}
	}
	return roots
}

// addImported adds the interfaces p and its imports declare, transitively.
func (w *reachWalk) addImported(p *types.Package, done map[*types.Package]bool) {
	if !done[p] {
		done[p] = true
		for _, name := range p.Scope().Names() {
			w.addIfaces(p.Scope().Lookup(name).Type())
		}
		for _, imp := range p.Imports() {
			w.addImported(imp, done)
		}
	}
}

func (w *reachWalk) addIfaces(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			w.ifaces[it.Method(i).Name()] = true
		}
	}
}

func (w *reachWalk) scan(info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				w.reach(obj.Origin())
			case *types.Var:
				w.reach(obj.Origin())
			case types.Object:
				w.reach(obj)
			}
		}
		return true
	})
}

func (w *reachWalk) reach(obj types.Object) {
	if !w.seen[obj] {
		w.seen[obj] = true
		w.queue = append(w.queue, obj)
	}
}

func (w *reachWalk) drain() {
	for len(w.queue) > 0 {
		obj := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		d, declared := w.decls[obj]
		if !declared {
			continue // outside the program
		}
		for _, n := range d.nodes {
			w.scan(d.info, n)
		}
		if named, ok := obj.Type().(*types.Named); ok && obj == named.Obj() {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); w.all || w.ifaces[m.Name()] {
					w.reach(m)
				}
			}
		}
	}
}

// recvType returns a method's receiver type name, or nil for a function.
func recvType(fn *types.Func) *types.TypeName {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return namedFrom(recv.Type()).Obj()
	}
	return nil
}
