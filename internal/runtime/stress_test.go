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

// watchFreeLists samples every mailbox until stop closes, failing the test
// if more containers exist than can be in use at once — one per slot and the
// one in the shard's hands — or the free lists hold more than exist.
func watchFreeLists(t *testing.T, rt *Runtime, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	for {
		for i, sh := range rt.shards {
			mb := sh.mail
			mb.mu.Lock()
			free, made, size := idle(mb), mb.made, len(mb.buf)
			mb.mu.Unlock()
			if free > made || made > size+1 {
				t.Errorf("shard %d: %d containers idle of %d made, mailbox size %d", i, free, made, size)
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

// TestRaceContainersAccountedExactlyOnce drives the recycled containers
// through every way out of a mailbox at once — handled, or refused by a Close
// racing producers that block on full mailboxes — and checks the two things
// ownership promises: the free lists never hold more than the mailbox size + 1
// containers, and every report pushed is handled or refused exactly once
// (none lost, none seen twice or out of order).
func TestRaceContainersAccountedExactlyOnce(t *testing.T) {
	// Six consecutive flows per producer: two on each of the three shards.
	const producers, flowsPer, rounds = 4, 6, 300
	t.Run("block/singles/close-races", func(t *testing.T) {
		rt := ploddingRuntime(t)
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
					subs[i] = proto.Measurement{SID: base + uint32(i), Fields: []float64{1, 2, 3}}
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
	})
}
