package analysis

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The testdata corpus: each analyzer must fire on every `// want` line
// (positive cases) and stay silent everywhere else (negative cases).

func TestBufRelease(t *testing.T)     { RunTest(t, BufRelease, "bufrelease") }
func TestDecoderAlias(t *testing.T)   { RunTest(t, DecoderAlias, "decoderalias") }
func TestSimDeterminism(t *testing.T) { RunTest(t, SimDeterminism, "netsim") }
func TestLockOrder(t *testing.T)      { RunTest(t, LockOrder, "lockorder") }

// TestDSLVerify runs the Install-gate verifier pass over a corpus of
// statically-constructed programs; the fixture imports the real lang
// package, so builder-API or verifier drift breaks it immediately.
func TestDSLVerify(t *testing.T) { RunTest(t, DSLVerify, "dslverify") }

// TestUnused runs the reachability pass over a corpus whose program is two
// packages, only one of them analyzed: a narrow run must still count the
// other's main as a caller.
func TestUnused(t *testing.T) { RunTest(t, Unused, "unused", "unusedcmd") }

// TestSimDeterminismLang covers the fold-VM compiler package's scope: the
// lang corpus mirrors compiler-shaped hazards (memo-map ranges feeding
// emission, entropy in instruction selection).
func TestSimDeterminismLang(t *testing.T) { RunTest(t, SimDeterminism, "lang") }

// TestSimDeterminismScope runs simdeterminism over a package outside its
// scope: the identical constructs must produce no diagnostics.
func TestSimDeterminismScope(t *testing.T) { RunTest(t, SimDeterminism, "notsim") }

// TestOwnershipSuppression checks the //lint:ownership escape hatch
// end-to-end: the netsim corpus contains a deliberate wall-clock call that
// only the directive keeps quiet.
func TestOwnershipSuppression(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := "testdata/src/netsim"
	loader.RegisterDir("netsim", dir)
	p, err := loader.LoadDir("netsim", dir)
	if err != nil {
		t.Fatal(err)
	}
	// Count raw diagnostics (pre-suppression) by running the analyzer
	// directly, then compare with the suppressed pipeline.
	var raw []Diagnostic
	pass := &Pass{Analyzer: SimDeterminism, Fset: p.Fset, Files: p.Files, Pkg: p.Types, TypesInfo: p.Info, diags: &raw}
	if err := SimDeterminism.Run(pass); err != nil {
		t.Fatal(err)
	}
	filtered, err := Run([]*Package{p}, []*Analyzer{SimDeterminism})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(filtered)+1 {
		t.Fatalf("expected exactly one suppressed diagnostic: raw=%d filtered=%d", len(raw), len(filtered))
	}
	found := false
	for _, d := range raw {
		if strings.Contains(d.Message, "time.Now") && d.Line > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("raw diagnostics missing the suppressed time.Now finding: %v", raw)
	}
}

// TestAll ensures the registry stays in sync with the shipped analyzers.
func TestAll(t *testing.T) {
	want := []string{"bufrelease", "decoderalias", "simdeterminism", "lockorder", "dslverify", "unused"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
	}
}

// TestTreeIsClean runs the full suite over the whole module — the same
// gate as `make lint`. Every intentional invariant break in the tree must
// carry a //lint:ownership directive with a reason, and every declaration no
// binary reaches is deleted or carries a //lint:testsupport one; a directive
// that suppresses nothing, or that gives no reason, fails the gate too
// (RunAll's hygiene pass).
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; covered by make lint")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader lost the tree", len(pkgs))
	}
	diags, err := RunAll(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestOwnershipHygiene pins RunAll's directive checks on the netsim corpus:
// its one directive has a reason and suppresses a real diagnostic, so the
// hygiene pass adds nothing; a synthetic stale or reasonless directive is
// reported.
func TestOwnershipHygiene(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := "testdata/src/netsim"
	loader.RegisterDir("netsim", dir)
	p, err := loader.LoadDir("netsim", dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAll([]*Package{p})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "ownership" {
			t.Errorf("healthy directive flagged: %s", d)
		}
	}

	hyg, err := RunAll([]*Package{mustLoadTestPkg(t, loader, "ownershiphygiene", "testdata/src/ownershiphygiene")})
	if err != nil {
		t.Fatal(err)
	}
	var stale, reasonless int
	for _, d := range hyg {
		if d.Analyzer != "ownership" {
			continue
		}
		if strings.Contains(d.Message, "stale") {
			stale++
		}
		if strings.Contains(d.Message, "no reason") {
			reasonless++
		}
	}
	if stale != 2 || reasonless != 1 {
		t.Fatalf("hygiene findings: stale=%d reasonless=%d, want 2 and 1\nall: %v", stale, reasonless, hyg)
	}
}

func mustLoadTestPkg(t *testing.T, loader *Loader, name, dir string) *Package {
	t.Helper()
	loader.RegisterDir(name, dir)
	p, err := loader.LoadDir(name, dir)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTestSupportHygiene pins RunAll's checks of //lint:testsupport on the
// unused corpus: the directive on Oracle suppresses its finding; the one on
// live, which init reaches, is stale; the one on Reasonless gives no reason.
func TestTestSupportHygiene(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.RegisterDir("unusedcmd", "testdata/src/unusedcmd")
	diags, err := RunAll([]*Package{mustLoadTestPkg(t, loader, "unused", "testdata/src/unused")})
	if err != nil {
		t.Fatal(err)
	}
	var stale, reasonless int
	for _, d := range diags {
		switch {
		case d.Analyzer != "testsupport":
		case strings.Contains(d.Message, "stale"):
			stale++
		case strings.Contains(d.Message, "no reason"):
			reasonless++
		default:
			t.Errorf("unexpected hygiene finding: %s", d)
		}
		if strings.Contains(d.Message, "Oracle") || strings.Contains(d.Message, "helper") {
			t.Errorf("test support reported: %s", d)
		}
	}
	if stale != 1 || reasonless != 1 {
		t.Fatalf("hygiene findings: stale=%d reasonless=%d, want 1 and 1\nall: %v", stale, reasonless, diags)
	}
}

// TestUnusedNarrowLoad pins that the unused pass takes its roots from the
// whole module whatever was loaded: a run over ./internal/lang alone, whose
// exported API only other packages call, reports exactly what a run over
// ./... reports in that package.
func TestUnusedNarrowLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; covered by make lint")
	}
	run := func(pattern string) []string {
		loader, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.Load(pattern)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(pkgs, []*Analyzer{Unused})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range diags {
			if filepath.Dir(d.File) == filepath.Join(loader.modRoot, "internal", "lang") {
				out = append(out, d.String())
			}
		}
		return out
	}
	narrow, whole := run("./internal/lang"), run("./...")
	if !slices.Equal(narrow, whole) {
		t.Fatalf("./internal/lang alone reports %d findings there, ./... reports %d:\n%v\nvs\n%v",
			len(narrow), len(whole), narrow, whole)
	}
}
