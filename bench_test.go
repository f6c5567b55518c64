package ccp

// Benchmarks regenerating (or micro-benchmarking the machinery behind)
// every table and figure in the paper's evaluation. Figure/table-level
// benchmarks run a scaled simulation per iteration and report the
// experiment's headline metric via b.ReportMetric; the micro-benchmarks
// quantify the per-operation costs the design arguments rest on (per-ACK
// fold cost, IPC round trips, §2.2's cube-root comparison).
//
//	go test -bench=. -benchmem

import (
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/experiments"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/nativecc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/offload"
	"github.com/ccp-repro/ccp/internal/proto"
	ccpruntime "github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// Table 1: instantiating every registered algorithm and capturing its
// installed programs (the registry probe behind the table).
func BenchmarkTable1AlgorithmCoverage(b *testing.B) {
	infos := algorithms.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, info := range infos {
			core.Describe(info.Factory, 1448)
		}
	}
	b.ReportMetric(float64(len(infos)), "algorithms")
}

// Table 2: per-operation cost of executing control-program expressions in
// the datapath's register VM (the price of one Rate/Cwnd evaluation), over a
// FrameLen-sized table as a flow's is.
func BenchmarkTable2ControlPrimitives(b *testing.B) {
	e := lang.Ite(lang.Lt(lang.V("pkt.rtt"), lang.C(0.05)),
		lang.Mul(lang.C(1.25), lang.V("rate")),
		lang.Mul(lang.C(0.75), lang.V("rate")))
	code, err := lang.CompileReg(e, lang.StdResolver(nil), lang.VarTableSize(0))
	if err != nil {
		b.Fatal(err)
	}
	vars := make([]float64, code.FrameLen)
	vars[lang.PktFieldSlot(lang.FieldRTT)] = 0.02
	vars[lang.FlowVarSlot(lang.FlowRate)] = 1e6
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = code.Eval(vars)
	}
	_ = sink
}

// §2.4: per-ACK cost of the fold path (bounded state in the datapath).
func BenchmarkFoldPerPacket(b *testing.B) {
	baseRTT, delta := lang.V("base_rtt"), lang.V("delta")
	queued := lang.Div(lang.Mul(lang.Sub(lang.V("pkt.rtt"), baseRTT), lang.V("cwnd")), lang.Max(baseRTT, lang.C(1e-9)))
	fold := &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "base_rtt", Init: 1e9}, {Name: "delta", Init: 0}},
		Updates: []lang.Assign{
			{Dst: "base_rtt", E: lang.Min(baseRTT, lang.V("pkt.rtt"))},
			{Dst: "delta", E: lang.Ite(lang.Lt(queued, lang.C(2)),
				lang.Add(delta, lang.C(1)),
				lang.Ite(lang.Gt(queued, lang.C(4)), lang.Sub(delta, lang.C(1)), delta))},
		},
	}
	cf, err := lang.CompileFold(fold)
	if err != nil {
		b.Fatal(err)
	}
	vars := make([]float64, cf.FrameLen())
	cf.InitRegs(vars)
	vars[lang.PktFieldSlot(lang.FieldRTT)] = 0.012
	vars[lang.FlowVarSlot(lang.FlowCwnd)] = 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.Step(vars)
	}
}

// §2.4: per-ACK cost of the vector path (append + eventual copy/ship).
func BenchmarkVectorPerPacket(b *testing.B) {
	fields := []lang.Field{lang.FieldRTT, lang.FieldAcked, lang.FieldECN}
	vars := make([]float64, lang.VarTableSize(0))
	vars[lang.PktFieldSlot(lang.FieldRTT)] = 0.012
	vars[lang.PktFieldSlot(lang.FieldAcked)] = 1448
	vec := make([]float64, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(vec) >= 4096*len(fields) {
			vec = vec[:0] // "Report": ship and reset
		}
		for _, f := range fields {
			vec = append(vec, vars[lang.PktFieldSlot(f)])
		}
	}
}

// §2.2: the kernel's integer cube root vs. user-space floating point — the
// paper's ease-of-programming example, quantified.
func BenchmarkCubeRootKernelStyle(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = nativecc.CubeRoot(float64(i%4096) + 0.5)
	}
	_ = sink
}

func BenchmarkCubeRootFloat(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = math.Pow(float64(i%4096)+0.5, 1.0/3.0)
	}
	_ = sink
}

// Wire protocol: the cost of one measurement message round trip through
// the serializer (the per-report CPU cost in Figure 5's model).
func BenchmarkProtoMeasurementRoundTrip(b *testing.B) {
	m := &proto.Measurement{SID: 1, Seq: 42, Fields: []float64{0.01, 2.5e6, 1.2e6, 14480, 0, 0.1, 0.012}}
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

// Marshal alone: the datapath-side cost of encoding one report.
func BenchmarkProtoMeasurementMarshal(b *testing.B) {
	m := &proto.Measurement{SID: 1, Seq: 42, Fields: []float64{0.01, 2.5e6, 1.2e6, 14480, 0, 0.1, 0.012}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

// Unmarshal alone: the agent-side cost of decoding one report (the
// canonical-form checks included).
func BenchmarkProtoMeasurementUnmarshal(b *testing.B) {
	m := &proto.Measurement{SID: 1, Seq: 42, Fields: []float64{0.01, 2.5e6, 1.2e6, 14480, 0, 0.1, 0.012}}
	data, err := proto.Marshal(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// Program installation: agent-side marshal + datapath-side unmarshal and
// validation of the §2.1 BBR pulse program.
func BenchmarkProgramInstall(b *testing.B) {
	prog := lang.NewProgram().
		MeasureEWMA().
		Rate(lang.Mul(lang.C(1.25), lang.V("rate"))).WaitRtts(1).Report().
		Rate(lang.Mul(lang.C(0.75), lang.V("rate"))).WaitRtts(1).Report().
		Rate(lang.V("rate")).WaitRtts(6).Report().
		MustBuild()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := lang.MarshalProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lang.UnmarshalProgram(data); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 2: one IPC round trip per iteration over a Unix stream socket
// (idle CPU condition; the measured quantity behind the CDF).
func BenchmarkFig2IPCUnixStreamRTT(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.sock")
	ln, err := ipc.ListenUnix(path)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		ipc.Echo(ipc.NewStream(conn))
	}()
	client, err := ipc.DialUnix(path)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2IPCUnixgramRTT is the Netlink-substitute condition.
func BenchmarkFig2IPCUnixgramRTT(b *testing.B) {
	dir := b.TempDir()
	a, peer, err := ipc.DgramPair(filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock"))
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	defer peer.Close()
	go ipc.Echo(peer)
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// figureBench runs a scaled single-flow simulation per iteration and
// reports utilization.
func figureBench(b *testing.B, ccp bool, alg string, native func() tcp.CongestionControl) {
	b.Helper()
	link := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
	dur := 5 * time.Second
	var util float64
	for i := 0; i < b.N; i++ {
		net := harness.New(harness.Config{Seed: int64(i + 1), Link: link})
		var flow *tcp.Flow
		if ccp {
			flow = net.AddCCPFlow(1, alg, tcp.Options{}).Flow
		} else {
			flow = net.AddNativeFlow(1, native(), tcp.Options{})
		}
		flow.Conn.Start()
		net.Run(dur)
		util = net.Utilization(dur)
	}
	b.ReportMetric(util*100, "util%")
}

// Figure 3: Cubic window dynamics, CCP vs native (scaled link).
func BenchmarkFig3CubicCCP(b *testing.B) { figureBench(b, true, "cubic", nil) }

func BenchmarkFig3CubicNative(b *testing.B) {
	figureBench(b, false, "", func() tcp.CongestionControl { return nativecc.NewCubic() })
}

// Figure 4: NewReno with a competing flow joining mid-run (scaled).
func BenchmarkFig4NewRenoCCP(b *testing.B) {
	link := netsim.LinkConfig{RateBps: 48e6, Delay: 10 * time.Millisecond, QueueBytes: 120000}
	var fair float64
	for i := 0; i < b.N; i++ {
		net := harness.New(harness.Config{Seed: int64(i + 1), Link: link})
		f1 := net.AddCCPFlow(1, "newreno", tcp.Options{})
		f2 := net.AddCCPFlow(2, "newreno", tcp.Options{})
		f1.Conn.Start()
		net.StartAt(f2.Flow, 3*time.Second)
		net.Run(10 * time.Second)
		d1 := float64(f1.Receiver.Delivered())
		d2 := float64(f2.Receiver.Delivered())
		fair = (d1 + d2) * (d1 + d2) / (2 * (d1*d1 + d2*d2))
	}
	b.ReportMetric(fair, "jain")
}

func BenchmarkFig4NewRenoNative(b *testing.B) {
	link := netsim.LinkConfig{RateBps: 48e6, Delay: 10 * time.Millisecond, QueueBytes: 120000}
	var fair float64
	for i := 0; i < b.N; i++ {
		net := harness.New(harness.Config{Seed: int64(i + 1), Link: link})
		f1 := net.AddNativeFlow(1, nativecc.NewNewReno(), tcp.Options{})
		f2 := net.AddNativeFlow(2, nativecc.NewNewReno(), tcp.Options{})
		f1.Conn.Start()
		net.StartAt(f1, 0)
		net.StartAt(f2, 3*time.Second)
		net.Run(10 * time.Second)
		d1 := float64(f1.Receiver.Delivered())
		d2 := float64(f2.Receiver.Delivered())
		fair = (d1 + d2) * (d1 + d2) / (2 * (d1*d1 + d2*d2))
	}
	b.ReportMetric(fair, "jain")
}

// Figure 5: one offload-grid cell per iteration (scaled link, TSO off —
// the interesting configuration), reporting achieved Gbit/s for CCP.
func BenchmarkFig5OffloadsTSOOffCCP(b *testing.B) {
	costs := offload.DefaultCosts()
	costs.SenderBudget /= 5
	costs.ReceiverBudget /= 5
	var achieved float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5(experiments.Fig5Config{
			RateBps:  2e9,
			Duration: time.Second,
			Runs:     1,
			Costs:    costs,
			Seed:     int64(i + 1),
		})
		achieved = res.TSOOff[1].AchievedBps
	}
	b.ReportMetric(achieved/1e9, "Gbps")
}

// Agent dispatch: messages per second through the agent's demultiplexer —
// the user-space half of §2.3's CPU argument.
func BenchmarkAgentDispatch(b *testing.B) {
	agent, err := core.NewAgent(core.AgentConfig{
		Registry:   algorithms.NewRegistry(),
		DefaultAlg: "reno",
	})
	if err != nil {
		b.Fatal(err)
	}
	reply := func(proto.Msg) error { return nil }
	agent.HandleMessage(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480}, reply)
	m := &proto.Measurement{SID: 1, Fields: []float64{0.01, 1e6, 1e6, 14480, 0, 0, 0.01}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq++ // a repeated sequence number is dropped as stale, undecided
		agent.HandleMessage(m, reply)
	}
}

// The installing counterpart of BenchmarkAgentDispatch: a Cubic flow answers
// every report by building a program and installing it, which since Install
// by reference means marshalling it whole (kept for snapshots), comparing its
// measure half with the last one's in place and encoding a reference.
func BenchmarkAgentDispatchInstall(b *testing.B) {
	agent, err := core.NewAgent(core.AgentConfig{
		Registry:   algorithms.NewRegistry(),
		DefaultAlg: "cubic",
	})
	if err != nil {
		b.Fatal(err)
	}
	reply := func(proto.Msg) error { return nil }
	agent.HandleMessage(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480}, reply)
	m := &proto.Measurement{SID: 1, Fields: []float64{1448, 0.01, 0}} // acked, rtt_f, dp_now
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq++
		m.Fields[2] += 0.005
		agent.HandleMessage(m, reply)
	}
}

// Sharded runtime dispatch: the same per-report path as BenchmarkAgentDispatch
// but through the flow-affine sharded executor, fed from parallel producers —
// the scaling story of ./benchmark's direct50k workload in microbenchmark form.
func BenchmarkRuntimeShardedDispatch(b *testing.B) {
	rt, err := ccpruntime.New(ccpruntime.Config{
		Shards: 4,
		Agent: core.AgentConfig{
			Registry:   algorithms.NewRegistry(),
			DefaultAlg: "reno",
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	reply := func(proto.Msg) error { return nil }
	const flows = 16
	for sid := uint32(1); sid <= flows; sid++ {
		rt.HandleMessage(&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480}, reply)
	}
	rt.Drain()
	var next uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One report per producer, restamped each time: HandleMessage only
		// borrows it, as a serve loop's decode scratch is borrowed.
		m := &proto.Measurement{
			SID:    atomic.AddUint32(&next, 1)%flows + 1,
			Fields: []float64{0.01, 1e6, 1e6, 14480, 0, 0, 0.01},
		}
		for pb.Next() {
			m.Seq++
			rt.HandleMessage(m, reply)
		}
	})
	b.StopTimer()
	rt.Drain()
}

// Simulator throughput: raw event rate, the cost floor of every experiment.
func BenchmarkSimulatorEvents(b *testing.B) {
	sim := netsim.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			sim.Schedule(time.Microsecond, tick)
		}
	}
	sim.Schedule(0, tick)
	b.ResetTimer()
	sim.Run(time.Duration(b.N+1) * time.Microsecond)
}

// End-to-end datapath: simulated packets per second through the full
// sender/receiver path with native congestion control.
func BenchmarkDatapathPacketRate(b *testing.B) {
	link := netsim.LinkConfig{RateBps: 1e9, Delay: time.Millisecond, QueueBytes: 1 << 20}
	net := harness.New(harness.Config{Link: link})
	f := net.AddNativeFlow(1, nativecc.NewCubic(), tcp.Options{})
	f.Conn.Start()
	b.ResetTimer()
	// Advance the simulation until b.N packets have been delivered.
	target := b.N
	step := 10 * time.Millisecond
	now := time.Duration(0)
	for f.Receiver.Stats().PktsRcvd < target {
		now += step
		net.Run(now)
	}
	b.ReportMetric(float64(f.Receiver.Stats().PktsRcvd)/now.Seconds(), "simpkts/s")
}

// TestBenchHarnessSanity keeps the root package from being test-free and
// pins the benchmark fixtures: cost-model invariants and the pulse program
// used across benches.
func TestBenchHarnessSanity(t *testing.T) {
	m := offload.DefaultCosts()
	if m.SenderBudget <= 0 || m.ReceiverBudget <= 0 {
		t.Fatal("cost model budgets must be positive")
	}
	if m.CostCCPPerAck >= m.CostCCNative {
		t.Fatal("the CCP per-ACK fold must be cheaper than a full in-kernel CC invocation")
	}
	prog := lang.NewProgram().
		MeasureEWMA().
		Rate(lang.Mul(lang.C(1.25), lang.V("rate"))).WaitRtts(1).Report().
		Rate(lang.Mul(lang.C(0.75), lang.V("rate"))).WaitRtts(1).Report().
		Rate(lang.V("rate")).WaitRtts(6).Report().
		MustBuild()
	data, err := lang.MarshalProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || len(data) > 1024 {
		t.Fatalf("pulse program wire size %d bytes", len(data))
	}
}
