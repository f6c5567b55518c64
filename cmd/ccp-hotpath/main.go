// Command ccp-hotpath measures the datapath hot paths this repo
// optimised — the wire codec and the simulator event queue — in their before
// and after forms, and emits the comparison as JSON (BENCH_hotpath.json in
// the repo root is a committed run). Per-ACK fold execution has one engine
// and so no pair here: its cost is lang.fold_step_ns in ./benchmark and
// BenchmarkFoldStep in internal/lang.
//
// "Before" lanes are executable history, not estimates. The package-level
// proto.Marshal/proto.Unmarshal pair deliberately preserves the original
// allocate-per-call behavior (fresh output buffer, throwaway decoder
// scratch), and refheap below is a faithful reduction of the event queue's
// container/heap predecessor (one *event allocation per Schedule, interface
// boxing on every push/pop). "After" lanes are the paths production code now
// runs: AppendMarshal into a reused buffer with a per-reader Decoder, and
// netsim.Sim's index-based 4-ary heap over a free-listed arena.
//
// Usage:
//
//	ccp-hotpath                        # table to stdout
//	ccp-hotpath -json BENCH_hotpath.json
//	ccp-hotpath -benchtime 2s
package main

import (
	"container/heap"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/gitstamp"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
)

func main() {
	// Register the testing package's flags (test.benchtime in particular)
	// before parsing; testing.Benchmark reads them even outside `go test`.
	testing.Init()
	var (
		jsonOut   = flag.String("json", "", "write machine-readable results to this path")
		benchtime = flag.Duration("benchtime", time.Second, "target run time per benchmark lane")
	)
	flag.Parse()
	if err := run(*jsonOut, *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "ccp-hotpath: %v\n", err)
		os.Exit(1)
	}
}

// lane is one measured configuration of a hot path.
type lane struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_per_op"`
	BPerOp    int64   `json:"b_per_op"`
	AllocsOp  int64   `json:"allocs_per_op"`
	Iters     int     `json:"iterations"`
	WallClock string  `json:"wall_clock"`
}

// pair is a before/after comparison over one hot path.
type pair struct {
	Path       string  `json:"path"`
	Before     lane    `json:"before"`
	After      lane    `json:"after"`
	Speedup    float64 `json:"speedup_ns"`
	ByteRatio  float64 `json:"byte_reduction"` // before B/op divided by after B/op; +Inf encoded as 0-alloc marker below
	AfterZero  bool    `json:"after_zero_alloc"`
	AllocDelta int64   `json:"allocs_removed_per_op"`
}

type report struct {
	Tool      string `json:"tool"`
	GitSHA    string `json:"git_sha,omitempty"`
	Benchtime string `json:"benchtime"`
	Pairs     []pair `json:"pairs"`
}

func run(jsonOut string, benchtime time.Duration) error {
	// testing.Benchmark honours the -test.benchtime flag, not a parameter;
	// inject it so one knob controls every lane.
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		return err
	}

	rep := report{Tool: "ccp-hotpath", GitSHA: gitstamp.SHA(), Benchtime: benchtime.String()}
	rep.Pairs = append(rep.Pairs,
		compare("codec round trip (7-field report)", benchCodecAlloc, benchCodecReuse),
		compare("codec round trip (16-report batch)", benchBatchAlloc, benchBatchReuse),
		compare("event schedule+dispatch (depth 256)", benchEventHeapAlloc, benchEventArena),
	)

	for _, p := range rep.Pairs {
		fmt.Printf("%s\n", p.Path)
		fmt.Printf("  before: %10.1f ns/op  %6d B/op  %4d allocs/op\n",
			p.Before.NsPerOp, p.Before.BPerOp, p.Before.AllocsOp)
		fmt.Printf("  after:  %10.1f ns/op  %6d B/op  %4d allocs/op\n",
			p.After.NsPerOp, p.After.BPerOp, p.After.AllocsOp)
		if p.AfterZero {
			fmt.Printf("  %.2fx faster, %d B/op -> 0 (allocation-free)\n\n", p.Speedup, p.Before.BPerOp)
		} else {
			fmt.Printf("  %.2fx faster, %.1fx fewer bytes/op\n\n", p.Speedup, p.ByteRatio)
		}
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

func compare(path string, before, after func(*testing.B)) pair {
	b := measure(path+" [before]", before)
	a := measure(path+" [after]", after)
	p := pair{
		Path:       path,
		Before:     b,
		After:      a,
		AfterZero:  a.BPerOp == 0,
		AllocDelta: b.AllocsOp - a.AllocsOp,
	}
	if a.NsPerOp > 0 {
		p.Speedup = b.NsPerOp / a.NsPerOp
	}
	if a.BPerOp > 0 {
		p.ByteRatio = float64(b.BPerOp) / float64(a.BPerOp)
	}
	return p
}

func measure(name string, fn func(*testing.B)) lane {
	r := testing.Benchmark(fn)
	return lane{
		Name:      name,
		NsPerOp:   float64(r.T.Nanoseconds()) / float64(r.N),
		BPerOp:    r.AllocedBytesPerOp(),
		AllocsOp:  r.AllocsPerOp(),
		Iters:     r.N,
		WallClock: r.T.String(),
	}
}

// --- codec lanes ---

func hotReport() *proto.Measurement {
	return &proto.Measurement{
		SID: 7, Seq: 42,
		Fields: []float64{0.012, 1.2e6, 1.1e6, 2896, 0, 0, 0.013},
	}
}

func hotBatch() *proto.Batch {
	msgs := make([]proto.Msg, 16)
	for i := range msgs {
		msgs[i] = &proto.Measurement{
			SID: uint32(i + 1), Seq: uint32(i + 1),
			Fields: []float64{0.01, 1e6, 1e6, 1448, 0, 0, 0.01},
		}
	}
	return &proto.Batch{Msgs: msgs}
}

func benchCodecAlloc(b *testing.B) {
	m := hotReport()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := proto.Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := proto.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCodecReuse(b *testing.B) {
	m := hotReport()
	var buf []byte
	var dec proto.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = proto.AppendMarshal(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatchAlloc(b *testing.B) {
	m := hotBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := proto.Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := proto.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatchReuse(b *testing.B) {
	m := hotBatch()
	var buf []byte
	var dec proto.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = proto.AppendMarshal(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- event-queue lanes ---

// refheap mirrors the container/heap event queue netsim shipped with before
// the arena rewrite: one heap-allocated *refEvent per Schedule, ordered by
// (at, seq), with the standard library boxing each element through
// interface{} on Push and Pop.
type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type refheap []*refEvent

func (h refheap) Len() int { return len(h) }
func (h refheap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refheap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refheap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refSim struct {
	now time.Duration
	seq uint64
	h   refheap
}

func (s *refSim) schedule(d time.Duration, fn func()) {
	heap.Push(&s.h, &refEvent{at: s.now + d, seq: s.seq, fn: fn})
	s.seq++
}

func (s *refSim) step() bool {
	if len(s.h) == 0 {
		return false
	}
	e := heap.Pop(&s.h).(*refEvent)
	s.now = e.at
	e.fn()
	return true
}

const eventDepth = 256

func benchEventHeapAlloc(b *testing.B) {
	s := &refSim{}
	var fn func()
	fn = func() { s.schedule(time.Microsecond, fn) }
	for i := 0; i < eventDepth; i++ {
		s.schedule(time.Duration(i)*time.Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

func benchEventArena(b *testing.B) {
	s := netsim.New(1)
	var fn func()
	fn = func() { s.Schedule(time.Microsecond, fn) }
	for i := 0; i < eventDepth; i++ {
		s.Schedule(time.Duration(i)*time.Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
