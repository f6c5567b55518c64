// Package examples pins what the in-simulator examples print, the way
// internal/experiments pins every fast experiment: a change meant to leave
// the simulated control loop alone leaves this table alone.
package examples

import (
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"runtime"
	"testing"
)

// golden is the SHA-256 of the stdout of `go run ./examples/<dir>`.
// socketagent is left out: it runs over a real socket and ring, in real
// time, and prints its own paths.
var golden = []struct {
	dir    string
	sha256 string
}{
	{"quickstart", "d3ba2ca06bf960c97b172eb47576f7f8d958405c80ccd292f7c1c9bfc5b6e81c"},
	{"customalg", "707a149dbf59b23fb2432b1ad135af07b61963cf9353cc2aa6fe5cd3b0bdcc8e"},
	{"multiflow", "83b7beb5984761cf030fcf000034475f89b252ea877bf01c175576ea4070e8f7"},
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every simulated example")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64's: other targets may fuse multiply-adds and round differently")
	}
	for _, g := range golden {
		t.Run(g.dir, func(t *testing.T) {
			out, err := exec.Command("go", "run", "./"+g.dir).Output()
			if err != nil {
				t.Fatalf("go run ./%s: %v", g.dir, err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Errorf("output changed: sha256 %s, want %s\n%s", got, g.sha256, out)
			}
		})
	}
}
