package faults_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/proto"
)

// recordingAgent captures delivered messages for assertions. A handler is
// only lent m, so what it reads later is a clone; the pointer it was handed
// is kept beside it for identity checks alone.
type recordingAgent struct {
	msgs   []proto.Msg
	handed []proto.Msg
}

func (r *recordingAgent) HandleMessage(m proto.Msg, reply func(proto.Msg) error) {
	r.msgs = append(r.msgs, proto.Clone(m))
	r.handed = append(r.handed, m)
}

// manualScheduler queues delayed deliveries for explicit firing.
type manualScheduler struct {
	fns []func()
}

func (s *manualScheduler) schedule(d time.Duration, fn func()) { s.fns = append(s.fns, fn) }

func (s *manualScheduler) fireAll() {
	fns := s.fns
	s.fns = nil
	for _, fn := range fns {
		fn()
	}
}

func seqs(msgs []proto.Msg) []uint32 {
	var out []uint32
	for _, m := range msgs {
		out = append(out, m.(*proto.Measurement).Seq)
	}
	return out
}

func sameSeqs(a []uint32, b ...uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAgentInjectorHealthyPassthrough(t *testing.T) {
	inner := &recordingAgent{}
	inj := faults.NewAgentInjector(inner, noSchedule(t))
	m := &proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1}}
	inj.HandleMessage(m, nil)
	if len(inner.handed) != 1 || inner.handed[0] != proto.Msg(m) {
		t.Fatal("healthy mode must pass the borrowed message through synchronously, uncloned")
	}
	if st := inj.Stats(); st.Delivered != 1 || st.Held != 0 || st.Delayed != 0 {
		t.Fatalf("stats=%+v", st)
	}
	if inj.Mode() != faults.AgentHealthy {
		t.Fatalf("mode=%v", inj.Mode())
	}
}

func TestAgentInjectorPauseHoldsAndResumeReplaysInOrder(t *testing.T) {
	inner := &recordingAgent{}
	inj := faults.NewAgentInjector(inner, noSchedule(t))
	inj.Pause()
	for seq := uint32(1); seq <= 3; seq++ {
		inj.HandleMessage(&proto.Measurement{SID: 1, Seq: seq}, nil)
	}
	if len(inner.msgs) != 0 {
		t.Fatal("paused agent received messages")
	}
	if st := inj.Stats(); st.Held != 3 {
		t.Fatalf("stats=%+v", st)
	}
	inj.Resume()
	if !sameSeqs(seqs(inner.msgs), 1, 2, 3) {
		t.Fatalf("replay order %v, want 1,2,3", seqs(inner.msgs))
	}
	if st := inj.Stats(); st.Replayed != 3 || st.Delivered != 3 {
		t.Fatalf("stats=%+v", st)
	}
	// Resume in a non-paused mode is a no-op.
	inj.Resume()
	if len(inner.msgs) != 3 {
		t.Fatal("second Resume re-replayed")
	}
}

func TestAgentInjectorSlowClonesAndDelays(t *testing.T) {
	inner := &recordingAgent{}
	sched := &manualScheduler{}
	inj := faults.NewAgentInjector(inner, sched.schedule)
	inj.SlowDown(700 * time.Millisecond)
	m := &proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1}}
	inj.HandleMessage(m, nil)
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 2}, nil)
	if len(inner.msgs) != 0 {
		t.Fatal("slow delivery arrived before the delay elapsed")
	}
	sched.fireAll()
	if !sameSeqs(seqs(inner.msgs), 1, 2) {
		t.Fatalf("delayed delivery order %v, want 1,2", seqs(inner.msgs))
	}
	// The Handler contract only borrows m: a delayed delivery must be a copy.
	if inner.handed[0] == proto.Msg(m) {
		t.Fatal("slow mode delivered the borrowed message, not a clone")
	}
	if st := inj.Stats(); st.Delayed != 2 || st.Delivered != 2 {
		t.Fatalf("stats=%+v", st)
	}
	// SlowDown(0) restores synchronous passthrough.
	inj.SlowDown(0)
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 3}, nil)
	if !sameSeqs(seqs(inner.msgs), 1, 2, 3) {
		t.Fatalf("post-recovery delivery missing: %v", seqs(inner.msgs))
	}
}

func TestAgentInjectorKillDropsHeldAndInflight(t *testing.T) {
	inner := &recordingAgent{}
	sched := &manualScheduler{}
	inj := faults.NewAgentInjector(inner, sched.schedule)

	inj.Pause()
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 1}, nil)
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 2}, nil)
	inj.Kill()
	if st := inj.Stats(); st.DroppedOnKill != 2 {
		t.Fatalf("stats=%+v, want held messages lost with the process", st)
	}
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 3}, nil)
	if st := inj.Stats(); st.DroppedDead != 1 {
		t.Fatalf("stats=%+v", st)
	}
	if len(inner.msgs) != 0 {
		t.Fatal("dead agent received messages")
	}

	// In-flight slow deliveries scheduled before a Kill die with it too.
	inj.Restart(inner)
	inj.SlowDown(time.Second)
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 4}, nil)
	inj.Kill()
	sched.fireAll()
	if len(inner.msgs) != 0 {
		t.Fatal("delayed delivery survived the process death")
	}
	if st := inj.Stats(); st.Delivered != 0 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestAgentInjectorRestartSwapsProcess(t *testing.T) {
	old := &recordingAgent{}
	sched := &manualScheduler{}
	inj := faults.NewAgentInjector(old, sched.schedule)

	// A slow delivery in flight across a Restart belongs to the old process
	// generation and must not reach the new one.
	inj.SlowDown(time.Second)
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 1}, nil)
	fresh := &recordingAgent{}
	inj.Restart(fresh)
	sched.fireAll()
	if len(old.msgs) != 0 || len(fresh.msgs) != 0 {
		t.Fatal("pre-restart in-flight delivery crossed the process boundary")
	}
	if inj.Mode() != faults.AgentHealthy {
		t.Fatalf("mode=%v after restart", inj.Mode())
	}
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 2}, nil)
	if len(fresh.msgs) != 1 || len(old.msgs) != 0 {
		t.Fatal("post-restart delivery did not go to the fresh process")
	}
}

func TestAgentInjectorSlowAfterPauseReplaysFirst(t *testing.T) {
	inner := &recordingAgent{}
	sched := &manualScheduler{}
	inj := faults.NewAgentInjector(inner, sched.schedule)
	inj.Pause()
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 1}, nil)
	inj.SlowDown(time.Second) // slow, not stopped: held backlog flushes now
	if !sameSeqs(seqs(inner.msgs), 1) {
		t.Fatalf("held message not replayed on SlowDown: %v", seqs(inner.msgs))
	}
	inj.HandleMessage(&proto.Measurement{SID: 1, Seq: 2}, nil)
	if len(inner.msgs) != 1 {
		t.Fatal("slow-mode delivery was synchronous")
	}
	sched.fireAll()
	if !sameSeqs(seqs(inner.msgs), 1, 2) {
		t.Fatalf("delivery order %v, want 1,2", seqs(inner.msgs))
	}
}
