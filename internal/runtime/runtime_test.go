package runtime_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// echoAlg acknowledges every report with a SetCwnd derived from the report,
// so tests can observe per-flow processing order in the reply stream.
type echoAlg struct {
	gate chan struct{} // when non-nil, OnMeasurement blocks on it
}

func (a *echoAlg) Name() string      { return "echo" }
func (a *echoAlg) Init(f *core.Flow) { _ = f.SetCwnd(f.Info.InitCwnd) }
func (a *echoAlg) OnMeasurement(f *core.Flow, m core.Measurement) {
	if a.gate != nil {
		<-a.gate
	}
	_ = f.SetCwnd(int(m.Seq) * 100)
}
func (a *echoAlg) OnUrgent(f *core.Flow, u core.UrgentEvent) { _ = f.SetCwnd(1) }

func testRegistry(gate chan struct{}) *core.Registry {
	reg := core.NewRegistry()
	reg.Register("echo", func() core.Alg { return &echoAlg{gate: gate} })
	return reg
}

func agentCfg(gate chan struct{}) core.AgentConfig {
	return core.AgentConfig{Registry: testRegistry(gate), DefaultAlg: "echo"}
}

// script builds a deterministic mixed message sequence over n flows.
func script(n int) []proto.Msg {
	var msgs []proto.Msg
	for i := 1; i <= n; i++ {
		msgs = append(msgs, &proto.Create{SID: uint32(i), MSS: 1448, InitCwnd: 14480})
	}
	for seq := uint32(1); seq <= 3; seq++ {
		for i := 1; i <= n; i++ {
			msgs = append(msgs, &proto.Measurement{SID: uint32(i), Seq: seq, Fields: []float64{float64(seq), 0, 0, 0, 0, 0, 0}})
		}
	}
	for i := 1; i <= n; i++ {
		msgs = append(msgs, &proto.Urgent{SID: uint32(i), Seq: 1, Kind: proto.UrgentDupAck, Value: 1448})
	}
	for i := 1; i <= n; i++ {
		msgs = append(msgs, &proto.Close{SID: uint32(i)})
	}
	return msgs
}

// replies runs every message through handle, collecting the reply frames.
func replies(t *testing.T, handle func(proto.Msg, func([]byte) error), msgs []proto.Msg) [][]byte {
	t.Helper()
	var mu sync.Mutex
	var out [][]byte
	reply := func(frame []byte) error {
		mu.Lock()
		out = append(out, bytes.Clone(frame)) // lent for the call
		mu.Unlock()
		return nil
	}
	for _, m := range msgs {
		handle(m, reply)
	}
	return out
}

func TestInlineModeBitIdenticalToAgent(t *testing.T) {
	msgs := script(8)
	direct, err := core.NewAgent(agentCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{Shards: 1, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	want := replies(t, direct.HandleMessage, msgs)
	got := replies(t, func(m proto.Msg, reply func([]byte) error) {
		frame, err := proto.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		rt.HandleFrame(frame, reply)
	}, msgs)
	if len(want) != len(got) {
		t.Fatalf("reply counts diverged: agent=%d runtime=%d", len(want), len(got))
	}
	for i := range want {
		if string(want[i]) != string(got[i]) {
			t.Fatalf("reply %d diverged:\nagent   %x\nruntime %x", i, want[i], got[i])
		}
	}
	if da, ra := direct.Stats(), rt.Stats().Agent; da != ra {
		t.Fatalf("stats diverged:\nagent   %+v\nruntime %+v", da, ra)
	}
}

func TestShardedPartitionPreservesPerFlowOrder(t *testing.T) {
	const flows, reports = 32, 50
	rt, err := runtime.New(runtime.Config{Shards: 4, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	lastCwnd := make(map[uint32]int64) // per-flow last observed decision
	outOfOrder := 0
	reply := func(m proto.Msg) error {
		sc, ok := m.(*proto.SetCwnd)
		if !ok {
			return nil
		}
		mu.Lock()
		if int64(sc.Bytes) < lastCwnd[sc.SID] {
			outOfOrder++
		}
		lastCwnd[sc.SID] = int64(sc.Bytes)
		mu.Unlock()
		return nil
	}
	for i := 1; i <= flows; i++ {
		rt.HandleMessage(&proto.Create{SID: uint32(i), MSS: 1448, InitCwnd: 1}, reply)
	}
	for seq := uint32(1); seq <= reports; seq++ {
		for i := 1; i <= flows; i++ {
			rt.HandleMessage(&proto.Measurement{SID: uint32(i), Seq: seq, Fields: make([]float64, 7)}, reply)
		}
	}
	rt.Drain()
	st := rt.Stats()
	if st.Agent.FlowsCreated != flows || st.Agent.Measurements != flows*reports {
		t.Fatalf("stats=%+v", st.Agent)
	}
	if rt.FlowCount() != flows {
		t.Fatalf("flow count=%d", rt.FlowCount())
	}
	if outOfOrder != 0 {
		t.Fatalf("%d per-flow decisions observed out of order", outOfOrder)
	}
	if st.ShutdownDropped != 0 {
		t.Fatalf("blocking policy dropped messages: %+v", st)
	}
}

// TestServeTransportOneLoopBothModes: the serve loop is the same pooled loop
// inline and sharded — frames decoded into scratch that is reclaimed and
// rewritten by the next frame, a malformed frame counted (once, and never as
// a dispatch) and skipped — and every report still draws the decision its own
// contents call for, in per-flow order. ServeSet's half of the same assertion
// is TestServeSetMultiplexesConnections.
func TestServeTransportOneLoopBothModes(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt, err := runtime.New(runtime.Config{Shards: shards, Agent: agentCfg(nil)})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			agentSide, dpSide, err := shmring.Pair(filepath.Join(t.TempDir(), "ring"), shmring.Options{}, shmring.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer agentSide.Close()
			done := make(chan error, 1)
			go func() { done <- runtime.ServeTransport(rt.HandleFrame, agentSide) }()

			const flows, reports = 4, 5
			send := func(m proto.Msg) {
				t.Helper()
				data, err := proto.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				if err := dpSide.Send(data); err != nil {
					t.Fatal(err)
				}
			}
			for sid := uint32(1); sid <= flows; sid++ {
				send(&proto.Create{SID: sid, InitCwnd: 1})
			}
			if err := dpSide.Send([]byte{0xFF, 0xFF}); err != nil {
				t.Fatal(err)
			}
			for seq := uint32(1); seq <= reports; seq++ {
				for sid := uint32(1); sid <= flows; sid++ {
					send(&proto.Measurement{SID: sid, Seq: seq, Fields: make([]float64, 7)})
				}
			}
			got := make(map[uint32][]uint32)
			for i := 0; i < flows*(reports+1); i++ {
				data, err := dpSide.Recv()
				if err != nil {
					t.Fatal(err)
				}
				m, err := proto.Unmarshal(data)
				if err != nil {
					t.Fatal(err)
				}
				sc, ok := m.(*proto.SetCwnd)
				if !ok {
					t.Fatalf("reply %#v, want a SetCwnd", m)
				}
				got[sc.SID] = append(got[sc.SID], sc.Bytes)
			}
			for sid := uint32(1); sid <= flows; sid++ {
				if want := "[1 100 200 300 400 500]"; fmt.Sprint(got[sid]) != want {
					t.Errorf("flow %d decided %v, want %s", sid, got[sid], want)
				}
			}
			dpSide.Close()
			if err := <-done; err == nil {
				t.Fatal("ServeTransport should return an error when the peer closes")
			}
			st := rt.Stats()
			if st.DecodeErrors != 1 {
				t.Errorf("decode errors = %d, want the one 0xFF 0xFF frame", st.DecodeErrors)
			}
			// Every decodable frame is one dispatch, inline and sharded alike.
			if want := int64(flows * (1 + reports)); st.Dispatched != want {
				t.Errorf("dispatched = %d, want %d: the undecodable frame must not count", st.Dispatched, want)
			}
		})
	}
}

func TestCloseDrainsQueuedWork(t *testing.T) {
	rt, err := runtime.New(runtime.Config{Shards: 3, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	reply := func(proto.Msg) error { return nil }
	const flows, reports = 9, 100
	for i := 1; i <= flows; i++ {
		rt.HandleMessage(&proto.Create{SID: uint32(i)}, reply)
	}
	for seq := uint32(1); seq <= reports; seq++ {
		for i := 1; i <= flows; i++ {
			rt.HandleMessage(&proto.Measurement{SID: uint32(i), Seq: seq, Fields: make([]float64, 7)}, reply)
		}
	}
	rt.Close() // must drain everything already accepted
	st := rt.Stats()
	if got := st.Agent.Measurements + st.ShutdownDropped; got != flows*reports {
		t.Fatalf("processed+shutdownDropped=%d, want %d (stats=%+v)", got, flows*reports, st)
	}
}

func TestConcurrentDispatchManyGoroutines(t *testing.T) {
	// The -race run in make check leans on this test: many producers, four
	// shards.
	rt, err := runtime.New(runtime.Config{Shards: 4, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	reply := func(proto.Msg) error { return nil }
	const producers, flowsPer, reports = 8, 4, 50
	for p := 0; p < producers; p++ {
		for f := 0; f < flowsPer; f++ {
			rt.HandleMessage(&proto.Create{SID: uint32(p*flowsPer + f + 1)}, reply)
		}
	}
	rt.Drain()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := uint32(p * flowsPer)
			for seq := uint32(1); seq <= reports; seq++ {
				for f := 0; f < flowsPer; f++ {
					rt.HandleMessage(&proto.Measurement{SID: base + uint32(f) + 1, Seq: seq, Fields: make([]float64, 7)}, reply)
				}
			}
		}(p)
	}
	wg.Wait()
	rt.Close()
	st := rt.Stats()
	if st.Agent.Measurements != producers*flowsPer*reports {
		t.Fatalf("measurements=%d, want %d (stats=%+v)", st.Agent.Measurements, producers*flowsPer*reports, st)
	}
	if st.Agent.StaleReports != 0 || st.Agent.UnknownFlowMsg != 0 {
		t.Fatalf("routing errors: %+v", st.Agent)
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := runtime.New(runtime.Config{Shards: -1, Agent: agentCfg(nil)}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := runtime.New(runtime.Config{Shards: 2}); err == nil {
		t.Fatal("missing registry accepted")
	}
}

func ExampleRuntime() {
	rt, _ := runtime.New(runtime.Config{Shards: 2, Agent: agentCfg(nil)})
	defer rt.Close()
	rt.HandleMessage(&proto.Create{SID: 7}, func(m proto.Msg) error { return nil })
	rt.Drain()
	fmt.Println(rt.FlowCount())
	// Output: 1
}

// TestShardedStatsSumInstallErrs: every shard's datapath refusals show up in
// the aggregate. A refusing datapath answers an Install with InstallErr; with
// 64 consecutive SIDs over 4 shards every shard takes some.
func TestShardedStatsSumInstallErrs(t *testing.T) {
	rt, err := runtime.New(runtime.Config{Shards: 4, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reply := func(proto.Msg) error { return nil }
	const flows = 64
	for i := 1; i <= flows; i++ {
		rt.HandleMessage(&proto.Create{SID: uint32(i), MSS: 1448, InitCwnd: 14480}, reply)
	}
	for i := 1; i <= flows; i++ {
		rt.HandleMessage(&proto.InstallErr{SID: uint32(i), Seq: 1, Reason: "bounds: instr 0"}, reply)
	}
	rt.Drain()
	if got := rt.Stats().Agent.InstallErrs; got != flows {
		t.Fatalf("sharded Stats().Agent.InstallErrs = %d, want %d", got, flows)
	}
}

// TestStatsNeverWaits: Stats and FlowCount load counters the shard publishes,
// so an observer reads them while a shard is parked inside an algorithm
// callback, whichever executor runs the shard.
func TestStatsNeverWaits(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gate := make(chan struct{})
			rt, err := runtime.New(runtime.Config{Shards: shards, Agent: agentCfg(gate)})
			if err != nil {
				t.Fatal(err)
			}
			reply := func(proto.Msg) error { return nil }
			rt.HandleMessage(&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480}, reply)
			// The caller runs a one-shard runtime, so the report parks this
			// goroutine; with four it parks shard 1.
			handled := make(chan struct{})
			go func() {
				defer close(handled)
				rt.HandleMessage(&proto.Measurement{SID: 1, Seq: 1, Fields: make([]float64, 7)}, reply)
			}()

			read := make(chan struct{})
			go func() {
				defer close(read)
				// The report is counted before OnMeasurement runs, and the
				// shard cannot leave it until the gate opens: every read from
				// here on is made while the shard is parked.
				for rt.Stats().Agent.Measurements == 0 {
					time.Sleep(time.Millisecond)
				}
				for range 10 {
					if st, n := rt.Stats(), rt.FlowCount(); st.Agent.FlowsCreated != 1 || n != 1 {
						t.Errorf("%d flows, %+v", n, st.Agent)
					}
				}
			}()
			select {
			case <-read:
			case <-time.After(5 * time.Second):
				t.Error("Stats or FlowCount waited for a parked shard")
			}
			close(gate)
			<-read
			<-handled
			rt.Close()
		})
	}
}

// TestCorruptedFramesReachNoAgent puts every single-bit flip, every
// truncation and a one-byte extension of a report, an urgent, a heartbeat
// and a close through a four-shard runtime's HandleFrame. Each frame fails
// its check, so it counts in DecodeErrors (and in Dispatched when it still
// routes) and no agent sees it: no report, urgent or heartbeat is heard, no
// flow is closed and no decision is sent. A flip in the SID routes a frame to
// another flow's shard, whose decoder refuses it the same way.
func TestCorruptedFramesReachNoAgent(t *testing.T) {
	rt, err := runtime.New(runtime.Config{Shards: 4, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var sent int
	reply := func([]byte) error { sent++; return nil }
	for sid := uint32(1); sid <= 4; sid++ {
		rt.HandleMessage(&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480}, func(proto.Msg) error { return nil })
	}
	rt.Drain()
	before := rt.Stats()

	var frames [][]byte
	misrouted := 0
	for _, m := range []proto.Msg{
		&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{0.01, 1e6, 1e6, 1448, 0, 0, 0.01}},
		&proto.Urgent{SID: 2, Seq: 1, Kind: proto.UrgentDupAck, Value: 1448},
		&proto.Heartbeat{SID: 3, Seq: 1, SentAt: 1.5},
		&proto.Close{SID: 4},
	} {
		good, err := proto.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range good {
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(good)
				bad[i] ^= 1 << bit
				if sid, ok := proto.FrameSID(bad); ok && sid%4 != m.FlowSID()%4 {
					misrouted++
				}
				frames = append(frames, bad)
			}
		}
		for n := range good {
			frames = append(frames, good[:n])
		}
		frames = append(frames, append(bytes.Clone(good), 0))
	}
	routable := 0
	for _, f := range frames {
		if _, ok := proto.FrameSID(f); ok {
			routable++
		}
		rt.HandleFrame(f, reply)
	}
	rt.Drain()
	after := rt.Stats()

	if misrouted == 0 {
		t.Fatal("no flipped SID routed a frame to another shard")
	}
	if d := after.DecodeErrors - before.DecodeErrors; d != int64(len(frames)) {
		t.Errorf("%d of %d corrupted frames counted in DecodeErrors", d, len(frames))
	}
	if d := after.Dispatched - before.Dispatched; d != int64(routable) {
		t.Errorf("dispatched %d corrupted frames, want the %d that route", d, routable)
	}
	if a, b := after.Agent, before.Agent; a != b || sent != 0 || rt.FlowCount() != 4 {
		t.Errorf("a corrupted frame reached an agent: stats %+v -> %+v, %d decisions sent, %d flows", b, a, sent, rt.FlowCount())
	}
}
