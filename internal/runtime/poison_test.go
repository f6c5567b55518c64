//go:build debugpool

package runtime_test

import (
	"math"
	"testing"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// hoardingAlg breaks the Measurement contract: it keeps Values, which is
// only valid during OnMeasurement.
type hoardingAlg struct{ kept *[]float64 }

func (a hoardingAlg) Name() string                                   { return "hoard" }
func (a hoardingAlg) Init(*core.Flow)                                {}
func (a hoardingAlg) OnMeasurement(_ *core.Flow, m core.Measurement) { *a.kept = m.Values }
func (a hoardingAlg) OnUrgent(*core.Flow, core.UrgentEvent)          {}

// TestPoisonedContainerExposesKeptValues: under -tags debugpool the shard
// decoder's scratch message is overwritten once the agent returns, so an
// algorithm that kept Measurement.Values past OnMeasurement reads NaNs, not
// the plausible stale numbers that would hide the bug until another report
// was decoded there.
func TestPoisonedContainerExposesKeptValues(t *testing.T) {
	var kept []float64
	reg := core.NewRegistry()
	reg.Register("hoard", func() core.Alg { return hoardingAlg{kept: &kept} })
	rt, err := runtime.New(runtime.Config{Shards: 2, Agent: core.AgentConfig{Registry: reg, DefaultAlg: "hoard"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reply := func(proto.Msg) error { return nil }
	rt.HandleMessage(&proto.Create{SID: 2}, reply)
	rt.HandleMessage(&proto.Measurement{SID: 2, Seq: 1, Fields: []float64{0.01, 1e6, 1e6, 1448, 0, 0, 0.01}}, reply)
	// Drain returns once the shard has handled the report, and so poisoned
	// its scratch.
	rt.Drain()
	if len(kept) != 7 {
		t.Fatalf("the algorithm saw %d values, want 7", len(kept))
	}
	for i, v := range kept {
		if !math.IsNaN(v) {
			t.Fatalf("kept Values[%d] = %v after the agent returned, want poison", i, v)
		}
	}
}
