package datapath

// Test hooks: the artifact table is a memo, so only a test can need to see
// it empty or full. None of this is reachable from non-test code.

// ArtifactCap is the process table's capacity.
const ArtifactCap = artifactCap

// ResetArtifacts empties the process table, as in a new process.
func ResetArtifacts() {
	artifacts.mu.Lock()
	defer artifacts.mu.Unlock()
	clear(artifacts.byKey[0])
	clear(artifacts.byKey[1])
	clear(artifacts.slots[:])
	artifacts.hand = 0
}

// StoredArtifacts is how many artifacts the process table holds.
func StoredArtifacts() int {
	artifacts.mu.Lock()
	defer artifacts.mu.Unlock()
	return len(artifacts.byKey[0]) + len(artifacts.byKey[1])
}

// ForgetArtifact makes the flow's next Install look its measure half up in
// the process table instead of recognising its own.
func (d *CCP) ForgetArtifact() { d.art = nil }

// Vars is the flow's variable table.
func (d *CCP) Vars() []float64 { return d.vars }
