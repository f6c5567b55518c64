// Command ccp-sim runs the paper-reproduction experiments and prints their
// tables/series. Each experiment id matches DESIGN.md's experiment index;
// Figure 2 is a wall-clock measurement between two processes, made by
// cmd/ipcbench instead.
//
// Usage:
//
//	ccp-sim -experiment fig3
//	ccp-sim -experiment fig3 -scale 0.1          # scale link rates for speed
//	ccp-sim -experiment all -out results/        # also write CSV series
//	ccp-sim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ccp-repro/ccp/internal/experiments"
	"github.com/ccp-repro/ccp/internal/trace"
)

var experimentOrder = []string{
	"table1", "table2", "table3",
	"fig3", "fig4", "fig5",
	"ablation-batching", "ablation-lowrtt", "ablation-foldvec",
	"ablation-fallback", "ablation-urgent", "ablation-chaos",
	"ablation-agentchaos", "ablation-ha",
	"ext-smooth", "ext-synthesis", "ext-group",
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (see -list), or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		outDir     = flag.String("out", "", "directory for CSV series output (optional)")
		scale      = flag.Float64("scale", 1.0, "scale link rates (e.g. 0.1 runs fig3 at 100 Mbit/s)")
	)
	flag.Parse()

	if *list {
		for _, id := range experimentOrder {
			fmt.Println(id)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "ccp-sim: -experiment required (try -list)")
		os.Exit(2)
	}
	ids := []string{*experiment}
	if *experiment == "all" {
		ids = experimentOrder
	}
	for _, id := range ids {
		if err := run(id, *scale, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "ccp-sim: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func run(id string, scale float64, outDir string) error {
	start := time.Now()
	switch id {
	case "table1":
		fmt.Println(experiments.Table1())
	case "table2":
		fmt.Println(experiments.Table2())
	case "table3":
		fmt.Println(experiments.Table3())
	case "fig3":
		res := experiments.Fig3(experiments.Fig3Config{RateBps: 1e9 * scale})
		fmt.Println(res)
		if outDir != "" {
			if err := writeSeriesCSV(outDir, "fig3_cwnd.csv", 50*time.Millisecond,
				rename(res.CCPCwnd, "ccp_cwnd"), rename(res.NativeCwnd, "native_cwnd")); err != nil {
				return err
			}
		}
	case "fig4":
		res := experiments.Fig4(experiments.Fig4Config{RateBps: 96e6 * scale})
		fmt.Println(res)
		if outDir != "" {
			if err := writeSeriesCSV(outDir, "fig4_throughput.csv", 500*time.Millisecond,
				rename(res.CCP.Flow1, "ccp_flow1"), rename(res.CCP.Flow2, "ccp_flow2"),
				rename(res.Native.Flow1, "native_flow1"), rename(res.Native.Flow2, "native_flow2")); err != nil {
				return err
			}
		}
	case "fig5":
		fmt.Println(experiments.Fig5(experiments.Fig5Config{RateBps: 10e9 * scale}))
	case "ablation-batching":
		fmt.Println(experiments.AblBatching())
	case "ablation-lowrtt":
		fmt.Println(experiments.AblLowRTT())
	case "ablation-foldvec":
		fmt.Println(experiments.AblFoldVec())
	case "ablation-fallback":
		fmt.Println(experiments.AblFallback())
	case "ablation-urgent":
		fmt.Println(experiments.AblUrgent())
	case "ablation-chaos":
		fmt.Println(experiments.AblChaos())
	case "ablation-agentchaos":
		fmt.Println(experiments.AblAgentChaos())
	case "ablation-ha":
		fmt.Println(experiments.AblHA())
	case "ext-smooth":
		fmt.Println(experiments.AblSmooth())
	case "ext-synthesis":
		fmt.Println(experiments.AblSynthesis())
	case "ext-group":
		fmt.Println(experiments.AblGroup())
	default:
		return fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}

func rename(s *trace.Series, name string) *trace.Series {
	out := trace.NewSeries(name, s.Unit)
	for _, p := range s.Points() {
		out.Add(p.T, p.V)
	}
	return out
}

func writeSeriesCSV(dir, name string, step time.Duration, series ...*trace.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteMultiCSV(f, step, series...)
}
