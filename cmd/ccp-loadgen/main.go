// Command ccp-loadgen runs the flow-scale benchmark: a closed-loop load
// generator drives the configured flow counts through the sharded agent
// runtime, measuring report throughput, report-to-decision latency, and the
// IPC message reduction report batching buys (the §4 scaling argument,
// measured rather than simulated).
//
// The -transport flag selects the lane: "chan" (the original in-process
// channel pair) or "shmring" (shared-memory rings striped over -conns
// connections, all served by one multiplexed agent goroutine). -outstanding
// bounds the reports in flight so the offered load stays constant while the
// flow table scales — the configuration behind the committed
// BENCH_scale.json 10k/50k/100k rows.
//
// Usage:
//
//	ccp-loadgen                          # default steps, table to stdout
//	ccp-loadgen -json BENCH_scale.json   # also write machine-readable output
//	ccp-loadgen -transport shmring -conns 4 -outstanding 256 \
//	    -flows 1000,10000,50000,100000 -reports 50 -timeout 5m
//	ccp-loadgen -flows 1,10 -reports 5 -json out.json -validate   # CI smoke
//	ccp-loadgen -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/ccp-repro/ccp/internal/experiments"
	"github.com/ccp-repro/ccp/internal/gitstamp"
)

func main() {
	// Exit codes live only here: run's defers (profile flushes) must fire
	// before os.Exit, which skips them.
	os.Exit(run())
}

func run() int {
	var (
		flows       = flag.String("flows", "1,10,100,1000", "comma-separated flow-count steps")
		reports     = flag.Int("reports", 200, "closed-loop reports per flow per step")
		shards      = flag.Int("shards", 0, "runtime shards (0 = GOMAXPROCS)")
		transport   = flag.String("transport", "chan", "IPC lane: chan or shmring")
		conns       = flag.Int("conns", 0, "datapath connections, shmring only (0 = default 4)")
		outstanding = flag.Int("outstanding", 0, "max reports in flight across all flows (0 = one per flow)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-step wedge timeout")
		interval    = flag.Duration("interval", time.Millisecond, "batch coalescing window")
		maxBatch    = flag.Int("max-batch", 64, "max reports per batch frame")
		seed        = flag.Int64("seed", 1, "seed for generated report contents")
		gogc        = flag.Int("gogc", 0, "set GOGC for the run (0 = runtime default); on a small heap the default GC cadence injects ~1ms pauses into the latency tail")
		jsonOut     = flag.String("json", "", "write BENCH_scale.json-style output to this path")
		validate    = flag.Bool("validate", false, "re-read the -json output and verify it parses with the expected rows (CI smoke)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the benchmark to this path")
		memProfile  = flag.String("memprofile", "", "write a post-run heap profile to this path")
	)
	flag.Parse()

	counts, err := parseFlows(*flows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccp-loadgen: %v\n", err)
		return 2
	}

	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccp-loadgen: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccp-loadgen: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	res, err := experiments.Scale(experiments.ScaleConfig{
		FlowCounts:     counts,
		ReportsPerFlow: *reports,
		Shards:         *shards,
		Transport:      *transport,
		Conns:          *conns,
		MaxOutstanding: *outstanding,
		BatchInterval:  *interval,
		MaxBatchMsgs:   *maxBatch,
		Seed:           *seed,
		Timeout:        *timeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccp-loadgen: %v\n", err)
		return 1
	}
	res.GitSHA = gitstamp.SHA()
	res.GOGC = *gogc
	fmt.Print(res.String())
	if *jsonOut != "" {
		if err := res.WriteJSON(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "ccp-loadgen: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
		if *validate {
			if err := validateJSON(*jsonOut, len(counts)); err != nil {
				fmt.Fprintf(os.Stderr, "ccp-loadgen: validation failed: %v\n", err)
				return 1
			}
			fmt.Printf("validated %s: %d rows\n", *jsonOut, len(counts))
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccp-loadgen: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained, not transient, memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccp-loadgen: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *memProfile)
	}
	return 0
}

// validateJSON is the CI smoke check: the written file must parse back into
// a ScaleResult with one fully populated point per requested flow step. It
// guards the loadgen pipeline (flag plumbing, transport setup, closed loop,
// serialization) against silent rot without committing CI to a long run.
func validateJSON(path string, wantRows int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var res experiments.ScaleResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("%s does not parse: %w", path, err)
	}
	if len(res.Points) != wantRows {
		return fmt.Errorf("%s has %d rows, want %d", path, len(res.Points), wantRows)
	}
	for _, p := range res.Points {
		if p.Flows <= 0 || p.Reports <= 0 || p.ReportsPerSec <= 0 || p.LatencyP99Us <= 0 {
			return fmt.Errorf("row for %d flows has unpopulated fields: %+v", p.Flows, p)
		}
	}
	return nil
}

func parseFlows(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad flow count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no flow counts in %q", s)
	}
	return out, nil
}
