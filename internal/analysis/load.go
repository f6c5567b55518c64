package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader
}

// Loader parses and type-checks packages of the enclosing module without
// any dependency on golang.org/x/tools: module-internal imports are
// type-checked from source by the loader itself, and standard-library
// imports are delegated to the stdlib source importer (which reads GOROOT
// sources, so it works offline). The repo has no third-party imports, so
// those two importers cover everything.
type Loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string
	std     types.ImporterFrom
	// typed memoizes type-checked packages by import path, shared between
	// dependency resolution and top-level loads. A package must be checked
	// exactly once per loader, whether it is first reached as an import or
	// as a top-level pattern: two checks would mint two distinct
	// *types.Package identities and spurious interface-satisfaction errors.
	typed map[string]*Package
	// extra maps additional import paths to directories (testdata packages).
	extra map[string]string
	// unreached memoizes the unused pass's findings over the module.
	unreached map[types.Object]bool
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The source importer consults the global build context. The module has
	// no cgo; disabling it here keeps the importer from shelling out to the
	// cgo tool for stdlib packages (net) that have a pure-Go fallback.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		modPath: modPath,
		modRoot: root,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		typed:   make(map[string]*Package),
		extra:   make(map[string]string),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modRoot, 0)
}

// ImportFrom implements types.ImporterFrom, routing module-internal and
// registered testdata paths to the source type-checker and everything else
// to the stdlib source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.typed[path]; ok {
		return pkg.Types, nil
	}
	if dir, ok := l.moduleDir(path); ok {
		pkg, err := l.check(path, dir, nil)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// moduleDir maps an import path to a source directory when the loader is
// responsible for type-checking it.
func (l *Loader) moduleDir(path string) (string, bool) {
	if dir, ok := l.extra[path]; ok {
		return dir, true
	}
	if path == l.modPath {
		return l.modRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load expands patterns ("./...", "./internal/proto", "dir/...") relative
// to the module root and returns the matched packages, sorted by path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		}
		if pat == "" || pat == "." {
			pat = "."
		}
		base := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			dirs[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for dir := range dirs {
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.modPath
		if rel != "." {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
		ctx := build.Default
		bp, err := ctx.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
		pkg, err := l.check(path, dir, bp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// check parses goFiles (or the directory's buildable files when nil) and
// type-checks them as importPath.
func (l *Loader) check(importPath, dir string, goFiles []string) (*Package, error) {
	if pkg, ok := l.typed[importPath]; ok {
		return pkg, nil
	}
	if goFiles == nil {
		ctx := build.Default
		bp, err := ctx.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
		}
		goFiles = bp.GoFiles
	}
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,

		loader: l,
	}
	l.typed[importPath] = pkg
	return pkg, nil
}
