package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// -compare needs the bound and direction of every end-to-end metric, the
// tests pin the rest against the tables in metrics.go and workloads.go.
type benchmarkFile struct {
	Workloads []benchWorkload `json:"workloads"`
	EndToEnd  []benchMetric   `json:"end_to_end"`
	PerLayer  []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// side is the untraced values of one side of a comparison:
// workload -> metric -> one value per run.
type side map[string]map[string][]float64

func loadSide(paths []string) (side, error) {
	s := side{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range doc.Runs {
			if r.Trace != 0 {
				continue
			}
			if !r.Correct {
				return nil, fmt.Errorf("%s: run of %s failed its correctness check", p, r.Workload)
			}
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]float64{}
			}
			for _, set := range []map[string]metricValue{r.Metrics, r.Timing} {
				for name, v := range set {
					s[r.Workload][name] = append(s[r.Workload][name], v.Value)
				}
			}
		}
	}
	return s, nil
}

// spread is the interquartile range as a share of the median, the
// acceptance check's measure of run-to-run noise; 0 with fewer than two runs.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if m := medianFloat(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// timingWarn is the tolerance -compare applies to the ungated timing metrics:
// past it a row reads "warn", and the exit code does not change. Timing on a
// shared box is worth a look, not a verdict (README, "Spread").
const timingWarn = 0.25

// compareMain prints one row per end-to-end metric and workload and returns
// the exit code: 1 when any metric got worse by more than its bound, 2 on
// bad input, else 0. A metric whose spread on either side exceeds its bound
// is reported as unresolved, never as unchanged. Timing metrics follow, as
// warnings only.
func compareMain(basePaths, newPaths []string) int {
	if len(newPaths) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs result files for both sides")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	base, err := loadSide(basePaths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	cand, err := loadSide(newPaths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareSides(bf, base, cand)
}

func compareSides(bf benchmarkFile, base, cand side) int {
	code := 0
	fmt.Printf("%-10s %-22s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "base median", "new median", "worse", "iqr b", "iqr n", "bound", "verdict")
	// row prints one comparison and returns its verdict.
	row := func(w, name, better string, bound float64, breach string) string {
		b, n := base[w][name], cand[w][name]
		if len(b) == 0 || len(n) == 0 {
			fmt.Printf("%-10s %-22s missing on one side\n", w, name)
			return "missing"
		}
		bm, nm := medianFloat(b), medianFloat(n)
		worse := 0.0
		if bm != 0 {
			worse = (nm - bm) / bm
			if better == "higher" {
				worse = -worse
			}
		}
		sb, sn := spread(b), spread(n)
		verdict := "ok"
		switch {
		case sb > bound || sn > bound:
			verdict = "unresolved (spread exceeds bound)"
		case worse > bound:
			verdict = breach
		}
		fmt.Printf("%-10s %-22s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
			w, name, bm, nm, 100*worse, 100*sb, 100*sn, 100*bound, verdict)
		return verdict
	}
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			switch row(w.Name, m.Name, m.Better, m.Bound, "BREACH") {
			case "missing":
				code = 2
			case "BREACH":
				if code == 0 {
					code = 1
				}
			}
		}
		for _, m := range timing {
			if len(base[w.Name][m.name]) == 0 && len(cand[w.Name][m.name]) == 0 {
				continue
			}
			better := "lower"
			if m.unit == "1/s" {
				better = "higher"
			}
			row(w.Name, m.name, better, timingWarn, "warn (timing is not gated)")
		}
	}
	return code
}
