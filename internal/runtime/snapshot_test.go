package runtime_test

import (
	"sync"
	"testing"

	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/supervise"
)

func TestSnapshotIntoAggregatesShards(t *testing.T) {
	rt, err := runtime.New(runtime.Config{Shards: 4, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reply := func(proto.Msg) error { return nil }
	const flows = 10
	for i := 1; i <= flows; i++ {
		rt.HandleMessage(&proto.Create{SID: uint32(i), MSS: 1448, InitCwnd: 14480}, reply)
	}
	rt.Drain()

	seen := map[uint32]bool{}
	var mu sync.Mutex
	n, err := rt.SnapshotInto(true, func(s *proto.Snapshot) error {
		mu.Lock()
		seen[s.SID] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != flows || len(seen) != flows {
		t.Fatalf("snapshot pass emitted %d (distinct %d), want %d", n, len(seen), flows)
	}
	// A second incremental pass over quiescent flows emits nothing.
	n, err = rt.SnapshotInto(false, func(*proto.Snapshot) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("incremental pass over idle flows emitted %d, want 0", n)
	}
}

// The HA snapshot pump runs against a live sharded runtime, so a snapshot
// pass must be safe while shard mailboxes are full and dispatchers block on
// them, and while the flow table churns — and the state it captures
// mid-storm must still promote into a working replacement agent, which is
// exactly what a shard restart does. The -race lane is the real assertion
// here; see `make test-race-robust`.
func TestRaceShardRestartUnderBackpressure(t *testing.T) {
	gate := make(chan struct{})
	rt, err := runtime.NewWithMailboxes(runtime.Config{
		Shards: 4,
		Agent:  agentCfg(gate),
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	reply := func(proto.Msg) error { return nil }
	const flows = 16
	for i := 1; i <= flows; i++ {
		rt.HandleMessage(&proto.Create{SID: uint32(i), MSS: 1448, InitCwnd: 14480}, reply)
	}
	rt.Drain()

	stop := make(chan struct{})
	// Feeder: drip processing tokens so the shards crawl — mailboxes stay
	// full and the producers stay blocked on them.
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		for {
			select {
			case gate <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
	// Producers: pour sequenced reports over every flow, each push waiting
	// for room in its shard's mailbox.
	const producers, rounds = 4, 50
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for seq := uint32(1); seq <= rounds; seq++ {
				for i := 1; i <= flows; i++ {
					rt.HandleMessage(&proto.Measurement{
						SID: uint32(i), Seq: seq + uint32(p)*rounds, Fields: []float64{1},
					}, reply)
				}
			}
		}(p)
	}
	// Replicator: snapshot passes race the producers and the shard loops;
	// the standby keeps whatever the last pass saw.
	sb := supervise.NewStandby()
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		full := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rt.SnapshotInto(full, func(s *proto.Snapshot) error {
				sb.Apply(s)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			full = false
		}
	}()

	prodWG.Wait()
	close(stop)
	feedWG.Wait()
	// Unwedge before waiting on the replicator: a snapshot pass already in
	// flight blocks on a shard agent's lock, which the shard only drops once
	// its gated OnMeasurement returns.
	close(gate)
	snapWG.Wait()
	rt.Drain()

	// One final quiescent pass so the standby holds every live flow, then
	// "restart the shards": promote the standby into a fresh runtime.
	if _, err := rt.SnapshotInto(true, func(s *proto.Snapshot) error {
		sb.Apply(s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	// Producers interleave each flow's sequence numbers, so some reports
	// arrive stale; none may be lost to the blocking mailboxes.
	st := rt.Stats()
	if got := st.Agent.Measurements + st.Agent.StaleReports; got != producers*rounds*flows || st.ShutdownDropped != 0 {
		t.Fatalf("%d of %d reports reached an agent: %+v", got, producers*rounds*flows, st)
	}
	promoted, err := runtime.New(runtime.Config{Shards: 4, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	sb.RestoreInto(promoted)
	if got := promoted.FlowCount(); got != flows {
		t.Fatalf("promoted runtime has %d flows, want %d", got, flows)
	}
	if got := promoted.Stats().Agent.Restores; got != flows {
		t.Fatalf("restores = %d, want %d", got, flows)
	}
}

// TestRuntimeRestoreFlowRoutesToOwningShard: a flow restored from a snapshot
// lands on the shard its SID maps to, so its next report — routed by the same
// mapping — finds it and is answered, for SIDs covering every shard (and
// inline, where there is one agent to find). A flow restored anywhere else
// would meet its report as an unknown flow and stay silent.
func TestRuntimeRestoreFlowRoutesToOwningShard(t *testing.T) {
	const flows = 12 // three per shard at Shards: 4
	primary, err := runtime.New(runtime.Config{Shards: 1, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for sid := uint32(1); sid <= flows; sid++ {
		primary.HandleMessage(&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480}, func(proto.Msg) error { return nil })
	}
	sb := supervise.NewStandby()
	if _, err := primary.SnapshotInto(true, func(s *proto.Snapshot) error {
		sb.Apply(s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4} {
		rt, err := runtime.New(runtime.Config{Shards: shards, Agent: agentCfg(nil)})
		if err != nil {
			t.Fatal(err)
		}
		sb.RestoreInto(rt)
		var mu sync.Mutex
		answered := map[uint32]uint32{}
		for sid := uint32(1); sid <= flows; sid++ {
			rt.HandleMessage(&proto.Measurement{SID: sid, Seq: 7, Fields: []float64{1}}, func(m proto.Msg) error {
				mu.Lock()
				answered[m.FlowSID()] = m.(*proto.SetCwnd).Bytes
				mu.Unlock()
				return nil
			})
		}
		rt.Close() // drains
		st := rt.Stats()
		if st.Agent.Restores != flows || st.Agent.UnknownFlowMsg != 0 || st.Agent.Measurements != flows {
			t.Fatalf("shards=%d: %+v", shards, st.Agent)
		}
		for sid := uint32(1); sid <= flows; sid++ {
			if answered[sid] != 700 {
				t.Errorf("shards=%d: flow %d's report drew %d, want echoAlg's 700", shards, sid, answered[sid])
			}
		}
	}
}
