package gitstamp

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSHAMarksUncommittedWork drives SHA in a throwaway repository: clean at
// a commit it is the commit's hash, with a modified or an untracked file it
// says so, and a rewritten BENCH document alone does not count.
func TestSHAMarksUncommittedWork(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GIT_CONFIG_GLOBAL=/dev/null", "GIT_CONFIG_SYSTEM=/dev/null",
			"GIT_AUTHOR_NAME=t", "GIT_AUTHOR_EMAIL=t@t", "GIT_COMMITTER_NAME=t", "GIT_COMMITTER_EMAIL=t@t")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("main.go", "package main\n")
	write("BENCH_x.json", "{}\n")
	git("add", "-A")
	git("commit", "-q", "-m", "seed")

	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	clean := SHA()
	if len(clean) != 40 || strings.Contains(clean, "dirty") {
		t.Fatalf("clean tree stamped %q", clean)
	}
	write("BENCH_x.json", "{\"rerun\":true}\n")
	if got := SHA(); got != clean {
		t.Fatalf("a regenerated BENCH document stamped %q, want %q", got, clean)
	}
	write("new.go", "package main\n")
	if got := SHA(); got != clean+"-dirty" {
		t.Fatalf("untracked source stamped %q", got)
	}
	os.Remove(filepath.Join(dir, "new.go"))
	write("main.go", "package main // edited\n")
	if got := SHA(); got != clean+"-dirty" {
		t.Fatalf("modified source stamped %q", got)
	}
}
