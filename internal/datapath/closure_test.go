package datapath_test

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// closureLines is the non-test Go line count of this package and everything
// it imports from the module, under the default build tags: what a datapath
// must carry to speak CCP. It was 9,055 while the closure held the simulator
// (tcp, netsim, nativecc).
const closureLines = 7129

// TestClosureSize counts the datapath closure's lines and holds them within
// 5% of closureLines, the way the benchmark gates its counts. A change that
// moves the count further, either way, re-pins it and says why. It also
// fails if the closure reaches the simulator again.
func TestClosureSize(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps",
		"-f", "{{if not .Standard}}{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}{{end}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		for _, sim := range []string{"/internal/tcp", "/internal/netsim", "/internal/nativecc"} {
			if strings.HasSuffix(fields[0], sim) {
				t.Errorf("the datapath closure contains %s", fields[0])
			}
		}
		n := 0
		for _, f := range fields[1:] {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			n += bytes.Count(data, []byte("\n"))
		}
		t.Logf("%-45s %5d", fields[0], n)
		total += n
	}
	t.Logf("closure: %d non-test lines (pinned %d)", total, closureLines)
	if lo, hi := closureLines*95/100, closureLines*105/100; total < lo || total > hi {
		t.Fatalf("datapath closure is %d non-test lines, outside 5%% of the pinned %d", total, closureLines)
	}
}
