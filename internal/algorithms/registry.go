// Package algorithms implements congestion control algorithms against the
// CCP API (internal/core) — the user-space side of the paper's architecture.
// It covers the rows of Table 1: window-based schemes (Reno, NewReno, Cubic,
// Vegas, DCTCP), rate-based schemes (Timely, PCC), the BBR pulse pattern
// from §2.1, an XCP-style router-feedback scheme, and a minimal AIMD used by
// the examples.
//
// The implementations deliberately exercise every interaction mode the
// paper describes: fold functions and measurement vectors (§2.4, both Vegas
// variants), control programs with in-datapath rate pulses (BBR), and plain
// per-RTT commands from the agent (Reno, Timely).
package algorithms

import "github.com/ccp-repro/ccp/internal/core"

// Info describes an algorithm for the Table 1 reproduction: the measurement
// primitives it consumes and the control knobs it drives.
type Info struct {
	Name         string
	Measurements []string // Table 1 "Measurement" column
	Controls     []string // Table 1 "Control Knobs" column
	Batching     string   // how it batches: "ewma", "fold", "vector"
	Factory      core.AlgFactory
}

// All returns every bundled algorithm's description, in Table 1 order where
// applicable.
func All() []Info {
	return []Info{
		{
			Name:         "reno",
			Measurements: []string{"ACKs"},
			Controls:     []string{"CWND"},
			Batching:     "ewma",
			Factory:      func() core.Alg { return NewReno() },
		},
		{
			Name:         "newreno",
			Measurements: []string{"ACKs", "Loss"},
			Controls:     []string{"CWND"},
			Batching:     "ewma",
			Factory:      func() core.Alg { return NewNewReno() },
		},
		{
			Name:         "vegas",
			Measurements: []string{"RTT"},
			Controls:     []string{"CWND"},
			Batching:     "fold",
			Factory:      func() core.Alg { return NewVegasFold() },
		},
		{
			Name:         "vegas-vector",
			Measurements: []string{"RTT"},
			Controls:     []string{"CWND"},
			Batching:     "vector",
			Factory:      func() core.Alg { return NewVegasVector() },
		},
		{
			Name:         "xcp",
			Measurements: []string{"Packet header"},
			Controls:     []string{"Rate"},
			Batching:     "fold",
			Factory:      func() core.Alg { return NewXCP() },
		},
		{
			Name:         "cubic",
			Measurements: []string{"Loss", "ACKs"},
			Controls:     []string{"CWND"},
			Batching:     "fold",
			Factory:      func() core.Alg { return NewCubic() },
		},
		{
			Name:         "dctcp",
			Measurements: []string{"ECN", "ACKs", "Loss"},
			Controls:     []string{"CWND"},
			Batching:     "fold",
			Factory:      func() core.Alg { return NewDCTCP() },
		},
		{
			Name:         "timely",
			Measurements: []string{"RTT"},
			Controls:     []string{"Rate"},
			Batching:     "ewma",
			Factory:      func() core.Alg { return NewTimely() },
		},
		{
			Name:         "pcc",
			Measurements: []string{"Loss", "Sending Rate", "Receiving Rate"},
			Controls:     []string{"Rate"},
			Batching:     "ewma",
			Factory:      func() core.Alg { return NewPCC() },
		},
		{
			Name:         "sprout",
			Measurements: []string{"Sending Rate", "Receiving Rate", "RTT"},
			Controls:     []string{"Rate"},
			Batching:     "ewma",
			Factory:      func() core.Alg { return NewSprout() },
		},
		{
			Name:         "bbr",
			Measurements: []string{"Sending Rate", "Receiving Rate", "RTT"},
			Controls:     []string{"Rate (pulses)", "CWND cap"},
			Batching:     "ewma",
			Factory:      func() core.Alg { return NewBBR() },
		},
		{
			Name:         "aimd",
			Measurements: []string{"ACKs"},
			Controls:     []string{"CWND"},
			Batching:     "ewma",
			Factory:      func() core.Alg { return NewAIMD(1, 0.5) },
		},
		{
			Name:         "aimd-dp",
			Measurements: []string{"ACKs", "Loss"},
			Controls:     []string{"CWND (synthesized in-datapath)"},
			Batching:     "fold",
			Factory:      func() core.Alg { return NewSynthesizedAIMD(1, 0.5) },
		},
	}
}

// Register adds every bundled algorithm to reg.
func Register(reg *core.Registry) {
	for _, info := range All() {
		reg.Register(info.Name, info.Factory)
	}
}

// NewRegistry returns a registry with every bundled algorithm registered.
func NewRegistry() *core.Registry {
	reg := core.NewRegistry()
	Register(reg)
	return reg
}
