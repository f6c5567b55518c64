// Command benchmark drives the whole control loop — ACK, fold, report, codec,
// ring, shard mailbox, algorithm, decision, codec, ring, apply — through the
// real layers in one process and reports what a trip round it costs, end to
// end and layer by layer. See README.md in this directory.
//
//	go run ./benchmark -workload steady -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload all -seed 1 -out results.json
//	go run ./benchmark -compare base.json new.json
//
// The flags choose what to measure and where to write it; nothing that
// configures the program under test is a flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// header identifies the machine, build and run a result came from.
type header struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GOGC       string  `json:"gogc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Transport  string  `json:"transport"`
}

// document is what -out writes and -compare reads.
type document struct {
	Header header   `json:"header"`
	Runs   []result `json:"runs"`
}

func newHeader(seed int64, seconds float64) header {
	h := header{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GOGC:       "100 (runtime default; the benchmark sets no GC knob)",
		Seed:       seed,
		Seconds:    seconds,
		Transport:  "in-process shmring, no link: frames cross mmap-ed rings inside one process, not a network or a process boundary",
	}
	if v := os.Getenv("GOGC"); v != "" {
		h.GOGC = v + " (from the environment)"
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h header) print() {
	fmt.Printf("# git %s, %s, nproc %d, GOMAXPROCS %d, cpu %q\n",
		h.GitSHA, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.CPUModel)
	fmt.Printf("# GOGC %s; seed %d; %g s measured per run\n", h.GOGC, h.Seed, h.Seconds)
	fmt.Printf("# %s\n", h.Transport)
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Float64("seconds", 10, "seconds measured per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "also write the results as a JSON document to this file")
		compare = flag.String("compare", "", "compare result documents: -compare base.json[,base2.json...] new.json [new2.json...]")
	)
	flag.Parse()
	if *compare != "" {
		os.Exit(compareMain(strings.Split(*compare, ","), flag.Args()))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)

	doc := document{Header: newHeader(*seed, *seconds)}
	doc.Header.print()
	ok := true
	if *name == "all" {
		// The full set: every workload untraced, then traced.
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				ok = runOne(&doc, defaultConfig(w, *seed, *seconds, traced), true) && ok
			}
		}
	} else {
		w, found := workloadByName(*name)
		if !found {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ok = runOne(&doc, defaultConfig(w, *seed, *seconds, *trace == 1), false)
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs cfg, appends the result to doc and prints it: a table when
// verbose, and always the one-line JSON object the harness contract asks for
// as the last line. It reports whether the run produced a result at all; a
// run that produced one but failed its correctness check says so in the
// result, not in the exit code.
func runOne(doc *document, cfg runConfig, verbose bool) bool {
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.w.name, err)
		return false
	}
	doc.Runs = append(doc.Runs, res)
	for _, why := range res.Failures {
		fmt.Printf("# FAILED %s\n", why)
	}
	if res.WaitedS > 0 {
		fmt.Printf("# %s waited %.0f s for the machine to settle before measuring\n", res.Workload, res.WaitedS)
	}
	for _, def := range timing {
		if v, ok := res.Timing[def.name]; ok {
			fmt.Printf("# timing %s %s: %.4f %s (not gated)\n", res.Workload, def.name, v.Value, v.Unit)
		}
	}
	if verbose {
		printTable(res)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return true
}

func printTable(res result) {
	defs := endToEnd
	kind := "end to end, tracing off"
	if res.Trace == 1 {
		defs, kind = perLayer, "per layer, traced"
	}
	fmt.Printf("\n== %s (%s): %d attempted, %d failed\n", res.Workload, kind, res.Attempted, res.Failed)
	for _, def := range defs {
		fmt.Printf("  %-34s %16.4f %s\n", def.name, res.Metrics[def.name].Value, def.unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
