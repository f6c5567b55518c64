package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/tcp"
	"github.com/ccp-repro/ccp/internal/trace"
)

// Fig4Config parameterizes the Figure 4 reproduction: NewReno reactivity.
// A 60-second flow starts at t=0; a competing flow of the same type starts
// at t=20s. The paper compares the convergence dynamics of CCP-based
// NewReno against the Linux implementation.
type Fig4Config struct {
	RateBps    float64       // default 96 Mbit/s
	RTT        time.Duration // default 20 ms
	Duration   time.Duration // default 60 s
	SecondAt   time.Duration // default 20 s
	IPCLatency time.Duration
	Bin        time.Duration // throughput binning (default 500 ms)
	Seed       int64
}

func (c Fig4Config) withDefaults() Fig4Config {
	if c.RateBps == 0 {
		c.RateBps = 96e6
	}
	if c.RTT == 0 {
		c.RTT = 20 * time.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.SecondAt == 0 {
		c.SecondAt = 20 * time.Second
	}
	if c.IPCLatency == 0 {
		c.IPCLatency = 25 * time.Microsecond
	}
	if c.Bin == 0 {
		c.Bin = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig4Run is one implementation's outcome.
type Fig4Run struct {
	Flow1, Flow2   *trace.Series // binned throughput, bytes/sec
	Utilization    float64
	FairnessAfter  float64       // Jain index over the contended window
	ConvergedAfter time.Duration // time from flow-2 start to sustained fair share
}

// Fig4Result compares CCP and native NewReno.
type Fig4Result struct {
	Config Fig4Config
	CCP    Fig4Run
	Native Fig4Run
}

// Fig4 runs both variants.
func Fig4(cfg Fig4Config) Fig4Result {
	cfg = cfg.withDefaults()
	link := oneBDPLink(cfg.RateBps, cfg.RTT)

	runOne := func(ccp bool) Fig4Run {
		net := harness.New(harness.Config{
			Seed:       cfg.Seed,
			Link:       link,
			IPCLatency: cfg.IPCLatency,
		})
		var f1, f2 *tcp.Flow
		if ccp {
			f1 = net.AddCCPFlow(1, "newreno", tcp.Options{}).Flow
			f2 = net.AddCCPFlow(2, "newreno", tcp.Options{}).Flow
		} else {
			f1 = net.AddNativeFlow(1, cc.NewNewReno(), tcp.Options{})
			f2 = net.AddNativeFlow(2, cc.NewNewReno(), tcp.Options{})
		}
		t1 := sampleThroughput(net, f1.Receiver, cfg.Bin, cfg.Duration)
		t2 := sampleThroughput(net, f2.Receiver, cfg.Bin, cfg.Duration)
		f1.Conn.Start()
		net.StartAt(f2, cfg.SecondAt)
		net.Run(cfg.Duration)

		// Fairness over the second half of the contended period.
		evalFrom := cfg.SecondAt + (cfg.Duration-cfg.SecondAt)/2
		m1 := t1.MeanOver(evalFrom, cfg.Duration)
		m2 := t2.MeanOver(evalFrom, cfg.Duration)
		fair := trace.JainFairness([]float64{m1, m2})

		// Convergence: first time after flow-2 start when flow 2 sustains
		// >= 60% of flow 1's rate for 5 consecutive bins.
		var converged time.Duration = -1
		run := 0
		for _, p := range t2.Points() {
			if p.T <= cfg.SecondAt {
				continue
			}
			r1 := t1.At(p.T)
			if r1 > 0 && p.V >= 0.6*r1 {
				run++
				if run >= 5 {
					converged = p.T - time.Duration(4)*cfg.Bin - cfg.SecondAt
					break
				}
			} else {
				run = 0
			}
		}
		return Fig4Run{
			Flow1:          t1,
			Flow2:          t2,
			Utilization:    net.Utilization(cfg.Duration),
			FairnessAfter:  fair,
			ConvergedAfter: converged,
		}
	}

	return Fig4Result{Config: cfg, CCP: runOne(true), Native: runOne(false)}
}

// String renders the comparison.
func (r Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: NewReno reactivity — %.0f Mbit/s, %v RTT; flow 2 joins at %v\n",
		r.Config.RateBps/1e6, r.Config.RTT, r.Config.SecondAt)
	render := func(name string, run Fig4Run) {
		fmt.Fprintf(&b, "  %-12s util=%.1f%%  fairness(late)=%.3f  convergence=%v\n",
			name, run.Utilization*100, run.FairnessAfter, run.ConvergedAfter)
	}
	render("ccp-newreno:", r.CCP)
	render("linux-newreno:", r.Native)
	b.WriteString("\n(a) CCP NewReno — flow 1 throughput\n")
	b.WriteString(r.CCP.Flow1.ASCII(72, 8))
	b.WriteString("    flow 2 throughput\n")
	b.WriteString(r.CCP.Flow2.ASCII(72, 8))
	b.WriteString("\n(b) Native NewReno — flow 1 throughput\n")
	b.WriteString(r.Native.Flow1.ASCII(72, 8))
	b.WriteString("    flow 2 throughput\n")
	b.WriteString(r.Native.Flow2.ASCII(72, 8))
	return b.String()
}
