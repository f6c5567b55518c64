package datapath

import (
	"reflect"
	"time"

	"github.com/ccp-repro/ccp/internal/lang"
)

// Test hooks: the artifact table is a memo, so only a test can need to see
// it empty or full. None of this is reachable from non-test code.

// ArtifactCap is the process table's capacity.
const ArtifactCap = artifactCap

// MaxVectorRows is how many rows a vector report holds at most.
const MaxVectorRows = maxVectorRows

// ResetArtifacts empties the process table, as in a new process.
func ResetArtifacts() {
	artifacts.mu.Lock()
	defer artifacts.mu.Unlock()
	clear(artifacts.byKey)
	clear(artifacts.slots[:])
	artifacts.hand = 0
}

// StoredArtifacts is how many artifacts the process table holds.
func StoredArtifacts() int {
	artifacts.mu.Lock()
	defer artifacts.mu.Unlock()
	return len(artifacts.byKey)
}

// ForgetArtifact makes the flow's next Install look its measure half up in
// the process table instead of recognising its own.
func (d *CCP) ForgetArtifact() { d.art = nil }

// Vars is the flow's variable table.
func (d *CCP) Vars() []float64 { return d.vars }

// Control is where the control program stands: its compiled code and the
// index of the instruction to run next. Epoch is the Seq of the Install whose
// measure half is in force.
func (d *CCP) Control() ([]lang.RegCode, int) { return d.ctrl, d.pc }
func (d *CCP) Epoch() uint32                  { return d.epoch }

// Features names the optional-feature structs the flow has, in CCP's field
// order.
func (d *CCP) Features() []string {
	var have []string
	add := func(name string, has bool) {
		if has {
			have = append(have, name)
		}
	}
	add("failsafe", d.fs != nil)
	add("smooth", d.smooth != nil)
	add("vector", d.vec != nil)
	return have
}

// NumberedStats is the Stats of a flow that has every feature struct and
// whose counters hold 1, 2, 3, ... in the order they are declared: a view
// that assembles every counter exactly once returns each number once.
func NumberedStats() (s Stats, counters int) {
	d := &CCP{fs: &failsafe{}, vec: &vectorState{}}
	for _, counts := range []any{&d.n, &d.fs.n, &d.vec.n} {
		v := reflect.ValueOf(counts).Elem()
		for i := 0; i < v.NumField(); i++ {
			counters++
			v.Field(i).SetInt(int64(counters))
		}
	}
	return d.Stats(), counters
}

// Staleness reports the virtual time since the last applied control message
// of each kind (Install, SetCwnd, SetRate), and since any of them. A kind
// never received reads as the time since Init. The clocks are the fail-safe
// layer's: a flow without Config.StalenessBudget keeps none and reads as
// zero.
type Staleness struct {
	Install time.Duration
	Cwnd    time.Duration
	Rate    time.Duration
	Any     time.Duration
}

// HasHost reports whether the flow has a host. Before Init the field is a
// nil interface, so this is false; a typed nil would read true.
func (d *CCP) HasHost() bool { return d.host != nil }

// Staleness returns the flow's current control-staleness clocks.
func (d *CCP) Staleness() Staleness {
	if !d.failsafeOn() {
		return Staleness{}
	}
	fs, now := d.fs, d.cfg.Clock.Now()
	return Staleness{
		Install: now - fs.lastInstallAt,
		Cwnd:    now - fs.lastCwndAt,
		Rate:    now - fs.lastRateAt,
		Any:     now - fs.lastAgentMsg,
	}
}
