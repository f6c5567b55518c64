package runtime_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
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
// exactly what a shard restart does, whether shard goroutines or the
// dispatchers drain the mailboxes. The -race lane is the real assertion
// here; see `make test-race-robust`.
func TestRaceShardRestartUnderBackpressure(t *testing.T) {
	for _, d := range runtime.Drivers {
		t.Run(d.Name, func(t *testing.T) { testShardRestartUnderBackpressure(t, d.Start) })
	}
}

func testShardRestartUnderBackpressure(t *testing.T, start func(*runtime.Runtime)) {
	gate := make(chan struct{})
	rt, err := runtime.NewWithMailboxes(runtime.Config{
		Shards: 4,
		Agent:  agentCfg(gate),
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	start(rt)
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
						SID: uint32(i), Seq: seq + uint32(p)*rounds, Fields: make([]float64, 7),
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
			if _, err := supervise.Replicate(rt, full, sb.Apply); err != nil {
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
	// flight waits to run on its shard, which only happens once the shard's
	// gated OnMeasurement returns.
	close(gate)
	snapWG.Wait()
	rt.Drain()

	// One final quiescent pass so the standby holds every live flow, then
	// "restart the shards": promote the standby into a fresh runtime.
	if _, err := supervise.Replicate(rt, true, sb.Apply); err != nil {
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
// mapping — finds it and is answered, for SIDs covering every shard (and at
// one shard, where there is one agent to find). A flow restored anywhere else
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
	if _, err := supervise.Replicate(primary, true, sb.Apply); err != nil {
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
			rt.HandleMessage(&proto.Measurement{SID: sid, Seq: 7, Fields: make([]float64, 7)}, func(m proto.Msg) error {
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

// TestRaceOneShardServeSnapshotRestore is ccp-agent -replicate on one
// core: ServeSet's dispatch from several rings, a replicator looping
// SnapshotInto and Stats, and a promotion restoring fresh SIDs all reach the
// one agent from their own goroutines. The one shard's mailbox must order
// them, and its goroutine, which ServeSet started, run them one at a time;
// the -race lane is the real assertion (see `make test-race-robust`), the
// counts the functional one.
func TestRaceOneShardServeSnapshotRestore(t *testing.T) {
	const conns, flows, reports, restores = 3, 4, 100, 50
	dir := t.TempDir()
	mux, err := shmring.NewMux(filepath.Join(dir, "mux.bell"))
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	dp := make([]ipc.Transport, conns)
	for i := range dp {
		a, b, err := shmring.Pair(filepath.Join(dir, fmt.Sprintf("ring%d", i)),
			shmring.Options{}, shmring.Options{Bell: mux.Bell()})
		if err != nil {
			t.Fatal(err)
		}
		if err := mux.Adopt(b); err != nil {
			t.Fatal(err)
		}
		dp[i] = a
		defer a.Close()
		defer b.Close()
	}
	rt, err := runtime.New(runtime.Config{Shards: 1, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	served := make(chan error, 1)
	go func() { served <- rt.ServeSet(mux) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	sb := supervise.NewStandby()
	go func() { // the replicator
		defer wg.Done()
		for full := true; ; full = false {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := supervise.Replicate(rt, full, sb.Apply); err != nil {
				t.Error(err)
				return
			}
			if st := rt.Stats(); st.Agent.Measurements > conns*flows*reports || rt.FlowCount() > conns*flows+restores {
				t.Errorf("counters past their totals: %d flows, %+v", rt.FlowCount(), st.Agent)
				return
			}
		}
	}()
	go func() { // a promotion restoring SIDs no ring uses
		defer wg.Done()
		for i := uint32(0); i < restores; i++ {
			if err := rt.RestoreFlow(&proto.Snapshot{SID: 1000 + i, MSS: 1448, InitCwnd: 14480, Alg: "echo"}); err != nil {
				t.Error(err)
			}
		}
	}()

	// Each connection owns SIDs ci*100+1 ... ci*100+flows, and reads back one
	// SetCwnd per Create (echoAlg.Init) and one per report.
	for ci, d := range dp {
		for f := 1; f <= flows; f++ {
			sid := uint32(ci*100 + f)
			send(t, d, &proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480})
			for seq := uint32(1); seq <= reports; seq++ {
				send(t, d, &proto.Measurement{SID: sid, Seq: seq, Fields: []float64{float64(seq), 0, 0, 0, 0, 0, 0}})
			}
		}
	}
	for ci, d := range dp {
		for n := 0; n < flows*(1+reports); n++ {
			recvMsg(t, d, ci, n)
		}
	}
	close(stop)
	wg.Wait()
	for _, tr := range mux.Transports() {
		tr.Close()
	}
	select {
	case err := <-served:
		if err != nil && !errors.Is(err, ipc.ErrClosed) {
			t.Fatalf("ServeSet returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeSet did not return after all endpoints closed")
	}

	st := rt.Stats()
	if st.Agent.Measurements != conns*flows*reports || st.Agent.Restores != restores || st.Agent.UnknownFlowMsg != 0 {
		t.Fatalf("stats after the run: %+v", st.Agent)
	}
	n, err := supervise.Replicate(rt, true, sb.Apply)
	if err != nil || n != conns*flows+restores || rt.FlowCount() != n || sb.FlowCount() != n {
		t.Fatalf("final pass emitted %d (%v), runtime holds %d flows, standby %d; want %d",
			n, err, rt.FlowCount(), sb.FlowCount(), conns*flows+restores)
	}
}
