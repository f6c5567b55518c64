package core_test

import (
	"slices"
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
	"github.com/ccp-repro/ccp/internal/proto"
)

// keptAlg runs an algorithm and keeps its flow and the names of every report
// it is handed.
type keptAlg struct {
	core.Alg
	flow  *core.Flow
	names [][]string
}

func (k *keptAlg) Init(f *core.Flow) { k.flow = f; k.Alg.Init(f) }
func (k *keptAlg) OnMeasurement(f *core.Flow, m core.Measurement) {
	k.names = append(k.names, m.Names)
	k.Alg.OnMeasurement(f, m)
}

// TestVegasReadsACrossingDefaultReport: Vegas installs its fold in Init, and
// a report its datapath's default program sent before that Install landed
// arrives after it. The report is the EWMA fields (its epoch is 0); read as
// Vegas's fold it would put the send rate in "delta", and Vegas would ask for
// a window of about delta × MSS, far past the verifier's bound. Named by its
// epoch, it carries no "delta", and the next window stays where it was.
func TestVegasReadsACrossingDefaultReport(t *testing.T) {
	var vegas core.AlgFactory
	for _, info := range algorithms.All() {
		if info.Name == "vegas" {
			vegas = info.Factory
		}
	}
	kept := &keptAlg{Alg: vegas()}
	reg := core.NewRegistry()
	reg.Register("vegas", func() core.Alg { return kept })
	agent, err := core.NewAgent(core.AgentConfig{Registry: reg, DefaultAlg: "vegas"})
	if err != nil {
		t.Fatal(err)
	}
	reply := func([]byte) error { return nil }
	agent.HandleMessage(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480}, reply)
	cwnd := func() float64 {
		return float64(kept.flow.Installed().Instrs[0].(lang.SetCwnd).E.(lang.Const))
	}
	if cwnd() != 14480 {
		t.Fatalf("Vegas's Init window is %v", cwnd())
	}
	// rtt, send rate, receive rate, acked, lost, ECN fraction, last rtt.
	agent.HandleMessage(&proto.Measurement{SID: 1, Seq: 1,
		Fields: []float64{0.02, 1.25e6, 1.2e6, 14480, 0, 0, 0.021}}, reply)
	if got := cwnd(); got > absint.CwndMax || got != 14480 {
		t.Fatalf("Vegas's next window is %v, want 14480 (the verifier's bound is %v)", got, float64(absint.CwndMax))
	}
	if len(kept.names) != 1 || !slices.Equal(kept.names[0], lang.EWMAReportNames()) {
		t.Fatalf("the default program's report was named %v", kept.names)
	}
}
