package main

import "time"

// workload is one traffic shape. Nothing here configures the program under
// test — the stack is always strict verify, register VM, default datapath
// config, 2 rings, 2 shards; a workload only decides what the driver feeds it.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same sentence).
	why string
	// openLoop paces virtual time to the wall clock and times each report
	// from when its timer was due; otherwise virtual time runs free and the
	// driver stalls at closedWindow unhandled reports.
	openLoop bool
	flows    int
	// algs are assigned round-robin by SID.
	algs []string
	// acksPerReport is fed at each timer fire (closed loop).
	acksPerReport int
	// ackEvery is the virtual time between ACKs of one flow (open loop): the
	// ACKs owed since the flow's last fire are fed when its timer comes due.
	ackEvery time.Duration
	// closeAfter closes a flow once this many of its reports were answered
	// and replaces it with a fresh one; 0 keeps flows for the whole run.
	closeAfter int
}

// closedWindow is the closed-loop bound on reports sent but not yet handled
// by an algorithm; setupWindow bounds unanswered Creates during set-up.
const (
	closedWindow = 64
	setupWindow  = 32
)

// lossEvery is the number of ACKs between two losses on one flow (the phase
// is seeded per flow; the period is fixed so that a run's message counts
// depend on the seed as little as possible).
// Without losses cubic's slow start walks the window past the verifier's
// 1<<30 clamp and every Install after that is refused; with them the windows
// stay bounded and the urgent path carries traffic too.
const lossEvery = 2000

var workloads = []workload{
	{
		name:     "steady",
		why:      "open loop at about a quarter of install capacity: loop latency with every layer in its natural proportion and the agent allowed to park",
		openLoop: true,
		flows:    300,
		algs:     []string{"cubic", "vegas", "bbr"},
		ackEvery: 6250 * time.Microsecond, // 16 ACKs per flow per 100 ms
	},
	{
		name:          "reinstall",
		why:           "closed loop, every report answered by an Install: program decode, verifier and compilers do most of the work",
		flows:         2000,
		algs:          []string{"cubic", "vegas"},
		acksPerReport: 8,
	},
	{
		name:          "direct50k",
		why:           "closed loop, SetCwnd/SetRate only over a 50k-flow table: codec, rings, runtime and table footprint do the work, the language layer none",
		flows:         50000,
		algs:          []string{"reno", "timely"},
		acksPerReport: 8,
	},
	{
		name:          "ackheavy",
		why:           "closed loop, 4096 ACKs per report: the per-ACK fold VM dominates while wire and agent carry few reports",
		flows:         64,
		algs:          []string{"cubic", "vegas"},
		acksPerReport: 4096,
	},
	{
		name:          "churn",
		why:           "closed loop, flows closed after 3 answered reports and replaced: create, default-program verify, close and table insert/delete beside report traffic",
		flows:         512,
		algs:          []string{"cubic", "vegas", "reno"},
		acksPerReport: 8,
		closeAfter:    3,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
