package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches `// want "re"` / `// want `+"`re`"+“ expectation
// comments, analysistest-style: each quoted pattern on an offending line
// must be matched by exactly one diagnostic reported on that line.
var wantRe = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// RunTest loads testdata/src/<pkg> relative to the analysis package and
// runs analyzer over it, comparing diagnostics against `// want`
// annotations. Lines without annotations must produce no diagnostics. The
// deps are registered, so pkg's program includes them, but not analyzed.
func RunTest(t *testing.T, analyzer *Analyzer, pkg string, deps ...string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, dep := range deps {
		loader.RegisterDir(dep, filepath.Join("testdata", "src", dep))
	}
	loader.RegisterDir(pkg, dir)
	p, err := loader.LoadDir(pkg, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", pkg, err)
	}
	diags, err := Run([]*Package{p}, []*Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s: %v", analyzer.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					pat := q[1 : len(q)-1]
					if q[0] == '"' {
						pat = strings.ReplaceAll(pat, `\"`, `"`)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	matched := map[key][]bool{}
	for _, d := range diags {
		k := key{d.File, d.Line}
		ws := wants[k]
		if matched[k] == nil && len(ws) > 0 {
			matched[k] = make([]bool, len(ws))
		}
		found := false
		for i, w := range ws {
			if !matched[k][i] && w.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", relPos(d.Pos), d.Message)
		}
	}
	for k, ws := range wants {
		for i, w := range ws {
			if matched[k] == nil || !matched[k][i] {
				t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(k.file), k.line, w)
			}
		}
	}
}

func relPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// RegisterDir maps importPath to dir for subsequent loads, letting testdata
// packages import one another under stable names.
func (l *Loader) RegisterDir(importPath, dir string) {
	l.extra[importPath] = dir
	l.unreached = nil // the program is now the registered packages
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. Only buildable non-test files (per the default build
// context) are included, matching what ships in the binary.
func (l *Loader) LoadDir(importPath, dir string) (*Package, error) {
	return l.check(importPath, dir, nil)
}
