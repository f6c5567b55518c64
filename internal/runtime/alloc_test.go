package runtime_test

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// TestAllocsShardedDispatch pins the agent's half of a report at nothing: a
// borrowed report crosses into a shard in a recycled container, the
// algorithm's decision is built in the shard agent's scratch, and a reply
// that marshals into a reused buffer keeps none of it. One op is a report in
// and its decision out, on a two-shard runtime, for a Measurement and an
// Urgent.
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
		op := func() {
			seq++
			c.stamp()
			want := replies.Load() + 1
			rt.HandleMessage(c.m, reply)
			await(want)
		}
		for i := 0; i < 4; i++ {
			op() // warm the containers and both free lists
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
