package runtime

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
)

// ploddingAlg yields on every report so mailboxes fill and pushes block.
type ploddingAlg struct{}

func (ploddingAlg) Name() string      { return "plod" }
func (ploddingAlg) Init(f *core.Flow) {}
func (ploddingAlg) OnMeasurement(f *core.Flow, m core.Measurement) {
	stdruntime.Gosched()
	_ = f.SetCwnd(int(m.Seq))
}
func (ploddingAlg) OnUrgent(f *core.Flow, u core.UrgentEvent) { _ = f.SetCwnd(1) }

func ploddingRuntime(t *testing.T) *Runtime {
	t.Helper()
	reg := core.NewRegistry()
	reg.Register("plod", func() core.Alg { return ploddingAlg{} })
	rt, err := NewWithMailboxes(Config{
		Shards: 3,
		Agent:  core.AgentConfig{Registry: reg, DefaultAlg: "plod"},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// queuedFrames is the buffers mb's queue holds: one per queued frame (an
// exec call has none).
func queuedFrames(mb *mailbox) [][]byte {
	var fs [][]byte
	for k := range mb.n {
		if f := mb.buf[(mb.head+k)%len(mb.buf)].frame; f != nil {
			fs = append(fs, f)
		}
	}
	return fs
}

// watchFreeLists samples every mailbox until stop closes, failing the test
// if more buffers are idle or queued than can exist at once — one per slot
// and the one in the drainer's hands, which holds none while both counts are
// at their most.
func watchFreeLists(t *testing.T, rt *Runtime, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	for {
		for i, sh := range rt.shards {
			mb := sh.mail
			mb.mu.Lock()
			free, queued, size := len(mb.free), len(queuedFrames(mb)), mb.size
			mb.mu.Unlock()
			if free+queued > size+1 {
				t.Errorf("shard %d: %d buffers idle and %d queued, mailbox size %d", i, free, queued, size)
				return
			}
		}
		select {
		case <-stop:
			return
		default:
			stdruntime.Gosched()
		}
	}
}

// TestRaceContainersAccountedExactlyOnce drives the recycled frame buffers
// through every way out of a mailbox at once — handled, or refused by a Close
// racing producers that block on full mailboxes — and checks the two things
// ownership promises: no more than the mailbox size + 1 buffers are ever
// idle or queued, and every report pushed is handled or refused exactly once
// (none lost, none seen twice or out of order). It runs with shard goroutines
// draining the mailboxes and with the producers draining them.
func TestRaceContainersAccountedExactlyOnce(t *testing.T) {
	t.Run("block/singles/close-races", func(t *testing.T) {
		for _, d := range Drivers {
			t.Run(d.Name, func(t *testing.T) { testCloseRacesProducers(t, d.Start) })
		}
	})
}

func testCloseRacesProducers(t *testing.T, start func(*Runtime)) {
	// Six consecutive flows per producer: two on each of the three shards.
	const producers, flowsPer, rounds = 4, 6, 300
	rt := ploddingRuntime(t)
	start(rt)
	reply := func(proto.Msg) error { return nil }
	for sid := uint32(1); sid <= producers*flowsPer; sid++ {
		rt.HandleMessage(&proto.Create{SID: sid}, reply)
	}
	rt.Drain()

	stop := make(chan struct{})
	var watcher, wg sync.WaitGroup
	watcher.Add(1)
	go watchFreeLists(t, rt, stop, &watcher)

	var pushed atomic.Int64 // reports and urgents handed to HandleMessage
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(base uint32) {
			defer wg.Done()
			// One scratch report per flow, rewritten every round:
			// HandleMessage only borrows it.
			subs := make([]proto.Measurement, flowsPer)
			for i := range subs {
				subs[i] = proto.Measurement{SID: base + uint32(i), Fields: []float64{1, 2, 3, 4, 5, 6, 7}}
			}
			urgent := &proto.Urgent{SID: base, Kind: proto.UrgentDupAck}
			for seq := uint32(1); seq <= rounds; seq++ {
				for i := range subs {
					subs[i].Seq = seq
					pushed.Add(1)
					rt.HandleMessage(&subs[i], reply)
				}
				if seq%16 == 0 {
					urgent.Seq = seq
					pushed.Add(1)
					rt.HandleMessage(urgent, reply)
				}
			}
		}(uint32(p*flowsPer + 1))
	}
	// Close lands mid-stream: about half the traffic is in.
	for pushed.Load() < producers*flowsPer*rounds/2 {
		stdruntime.Gosched()
	}
	rt.Close()
	wg.Wait()
	close(stop)
	watcher.Wait()

	st := rt.Stats()
	handled := int64(st.Agent.Measurements + st.Agent.Urgents)
	if got := handled + st.ShutdownDropped; got != pushed.Load() {
		t.Fatalf("handled %d + refused at shutdown %d = %d, pushed %d",
			handled, st.ShutdownDropped, got, pushed.Load())
	}
	if st.Agent.StaleReports != 0 || st.Agent.DupUrgents != 0 || st.Agent.UnknownFlowMsg != 0 {
		t.Fatalf("a report was seen twice, out of order or under another flow: %+v", st.Agent)
	}
}

// TestRaceCallerDrainedMailboxBound holds a runtime that no serve loop
// drives, whose producers are its drainers, to the mailbox's bound: four
// producers pour reports into three eight-slot mailboxes, each handing over
// to whichever producer found its shard's mailbox empty, and at no point are
// more than size + 1 buffers idle or queued, nor more than size + 1 ever made
// per shard. After Drain nothing is queued and every buffer made is idle, on
// its free list once. Every report is as long as every other (each Seq takes
// two bytes), so no buffer is ever outgrown and replaced: a buffer sampled
// once and missing from the free list at the end was lost.
func TestRaceCallerDrainedMailboxBound(t *testing.T) {
	const producers, flows, rounds, seq0 = 4, 12, 200, 128
	rt := ploddingRuntime(t)
	defer rt.Close()
	reply := func(proto.Msg) error { return nil }
	m := &proto.Measurement{Seq: seq0, Fields: []float64{1, 2, 3, 4, 5, 6, 7}}
	for sid := uint32(1); sid <= flows; sid++ {
		rt.HandleMessage(&proto.Create{SID: sid}, reply)
		m.SID = sid
		rt.HandleMessage(m, reply) // outgrows the Create's buffer before sampling starts
	}

	seen := make([]map[*byte]bool, len(rt.shards)) // every buffer sampled, by shard
	for i := range seen {
		seen[i] = make(map[*byte]bool)
	}
	sample := func() {
		for i, sh := range rt.shards {
			mb := sh.mail
			mb.mu.Lock()
			for _, b := range mb.free {
				seen[i][bufID(b)] = true
			}
			for _, f := range queuedFrames(mb) {
				seen[i][bufID(f)] = true
			}
			mb.mu.Unlock()
		}
	}
	stop := make(chan struct{})
	var watcher, wg sync.WaitGroup
	watcher.Add(2)
	go watchFreeLists(t, rt, stop, &watcher)
	go func() {
		defer watcher.Done()
		for {
			sample()
			select {
			case <-stop:
				return
			default:
				stdruntime.Gosched()
			}
		}
	}()
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &proto.Measurement{Fields: []float64{1, 2, 3, 4, 5, 6, 7}} // this producer's scratch
			for seq := uint32(1); seq <= rounds; seq++ {
				for sid := uint32(1); sid <= flows; sid++ {
					m.SID, m.Seq = sid, seq0+seq+uint32(p)*rounds
					rt.HandleMessage(m, reply)
				}
			}
		}()
	}
	wg.Wait()
	rt.Drain()
	close(stop)
	watcher.Wait()
	sample()

	if st, want := rt.Stats(), int64(flows*(1+producers*rounds)); st.Agent.Measurements+st.Agent.StaleReports != want {
		t.Fatalf("%d of %d reports reached an agent: %+v", st.Agent.Measurements+st.Agent.StaleReports, want, st.Agent)
	}
	for i, sh := range rt.shards {
		mb := sh.mail
		idle := make(map[*byte]bool)
		for _, b := range mb.free {
			idle[bufID(b)] = true
		}
		if mb.n != 0 || len(idle) != len(mb.free) || len(idle) != len(seen[i]) || len(seen[i]) > mb.size+1 {
			t.Errorf("shard %d after Drain: %d queued, %d on the free list (%d distinct), %d buffers seen; want 0 queued and every one of at most %d idle once",
				i, mb.n, len(mb.free), len(idle), len(seen[i]), mb.size+1)
		}
	}
}
