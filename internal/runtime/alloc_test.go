package runtime_test

import (
	"errors"
	"path/filepath"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// TestAllocsShardedDispatch pins the agent's half of a report at nothing: a
// report marshalled into a reused buffer, as a datapath sends it, crosses
// HandleFrame into a shard in a recycled mailbox buffer, the shard decodes it
// into its own scratch, the algorithm's decision is built in the shard
// agent's scratch, and a reply that marshals into a reused buffer keeps none
// of it. One op is a report in and its decision out, on a two-shard runtime,
// for a Measurement and an Urgent.
func TestAllocsShardedDispatch(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rt, err := runtime.New(runtime.Config{Shards: 2, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var (
		mu      sync.Mutex
		buf     = make([]byte, 0, 256)
		replies atomic.Int64
		encErr  error
	)
	reply := func(m proto.Msg) error {
		mu.Lock()
		defer mu.Unlock()
		if _, err := proto.AppendMarshal(buf[:0], m); err != nil {
			encErr = err
		}
		replies.Add(1)
		return nil
	}
	// await spins until the shards have answered: Drain would do, but makes a
	// channel per shard.
	await := func(n int64) {
		for replies.Load() < n {
			stdruntime.Gosched()
		}
	}

	const flows = 32
	for sid := uint32(1); sid <= flows; sid++ {
		rt.HandleMessage(&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480}, reply)
	}
	await(flows) // echoAlg answers Init with a SetCwnd

	report := &proto.Measurement{SID: 3, Fields: []float64{0.01, 1e6, 1e6, 1448, 0, 0, 0.01}}
	urgent := &proto.Urgent{SID: 4, Kind: proto.UrgentDupAck, Value: 1448}
	var seq uint32
	for _, c := range []struct {
		name  string
		m     proto.Msg
		stamp func()
	}{
		{"Measurement", report, func() { report.Seq = seq }},
		{"Urgent", urgent, func() { urgent.Seq = seq }},
	} {
		var frame []byte
		op := func() {
			seq++
			c.stamp()
			want := replies.Load() + 1
			var err error
			if frame, err = proto.AppendMarshal(frame[:0], c.m); err != nil {
				t.Fatal(err)
			}
			rt.HandleFrame(frame, reply)
			await(want)
		}
		for i := 0; i < 4; i++ {
			op() // warm the mailbox buffers and the shard decoders
		}
		if allocs := testing.AllocsPerRun(500, op); allocs != 0 {
			t.Errorf("%s through a sharded runtime allocated %.2f times per op, want 0", c.name, allocs)
		}
	}
	if encErr != nil {
		t.Fatalf("a decision failed to marshal: %v", encErr)
	}
	if st := rt.Stats(); st.Agent.StaleReports != 0 || st.Agent.DupUrgents != 0 {
		t.Fatalf("the measured ops were not all handled: %+v", st)
	}
}

// TestAllocsServeSetDispatch pins the shipped path at nothing: ccp-agent,
// examples/socketagent and ./benchmark all serve their rings with ServeSet,
// which routes each frame by its header into a recycled mailbox buffer that
// the shard decodes in its own scratch. One op is a frame sent on the
// datapath end of a shmring pair into a two-shard runtime and the decision
// read back, for a Measurement and an Urgent.
func TestAllocsServeSetDispatch(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if bufpool.DebugEnabled {
		t.Skip("debugpool ownership tracking records stack traces on every pooled frame the replies take")
	}
	dir := t.TempDir()
	mux, err := shmring.NewMux(filepath.Join(dir, "mux.bell"))
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	dp, ag, err := shmring.Pair(filepath.Join(dir, "ring"), shmring.Options{}, shmring.Options{Bell: mux.Bell()})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := mux.Adopt(ag); err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{Shards: 2, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	served := make(chan error, 1)
	go func() { served <- rt.ServeSet(mux) }()

	var (
		buf    = make([]byte, 0, 256)
		dec    proto.Decoder
		opErr  error
		answer proto.Msg
	)
	// roundTrip sends m and reads back the one decision it draws.
	roundTrip := func(m proto.Msg) {
		if buf, opErr = proto.AppendMarshal(buf[:0], m); opErr != nil {
			return
		}
		if opErr = dp.Send(buf); opErr != nil {
			return
		}
		f, err := dp.RecvFrame()
		if err != nil {
			opErr = err
			return
		}
		answer, opErr = dec.Unmarshal(f.B)
		f.Release()
	}
	const flows = 8
	for sid := uint32(1); sid <= flows; sid++ {
		roundTrip(&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480}) // echoAlg answers Init
	}
	if opErr != nil {
		t.Fatal(opErr)
	}

	report := &proto.Measurement{SID: 3, Fields: []float64{0.01, 1e6, 1e6, 1448, 0, 0, 0.01}}
	urgent := &proto.Urgent{SID: 4, Kind: proto.UrgentDupAck, Value: 1448}
	var seq uint32
	for _, c := range []struct {
		m     proto.Msg
		stamp func()
	}{
		{report, func() { report.Seq = seq }},
		{urgent, func() { urgent.Seq = seq }},
	} {
		op := func() {
			seq++
			c.stamp()
			roundTrip(c.m)
		}
		for i := 0; i < 4; i++ {
			op() // warm the mailbox buffers, the decoders and the reply frames
		}
		if allocs := testing.AllocsPerRun(500, op); allocs != 0 {
			t.Errorf("%s through ServeSet allocated %.2f times per op, want 0", c.m.Type(), allocs)
		}
		if opErr != nil {
			t.Fatalf("%s round trip: %v", c.m.Type(), opErr)
		}
		if sc, ok := answer.(*proto.SetCwnd); !ok || sc.SID != c.m.FlowSID() {
			t.Fatalf("%s drew %+v, want a SetCwnd for flow %d", c.m.Type(), answer, c.m.FlowSID())
		}
	}
	if st := rt.Stats(); st.Agent.StaleReports != 0 || st.Agent.DupUrgents != 0 || st.DecodeErrors != 0 {
		t.Fatalf("the measured ops were not all handled: %+v", st)
	}
	mux.Close()
	ag.Close()
	if err := <-served; err != nil && !errors.Is(err, ipc.ErrClosed) {
		t.Fatalf("ServeSet returned %v", err)
	}
}
