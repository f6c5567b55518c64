package faults_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/proto"
)

// recordingAgent captures delivered frames for assertions. A handler is only
// lent a frame, so what it reads later is decoded from a byte copy; the frame
// it was handed is kept beside it for identity checks alone. It refuses a
// frame that does not decode, as a runtime does.
type recordingAgent struct {
	msgs   []proto.Msg
	handed [][]byte
}

func (r *recordingAgent) handle(frame []byte, _ func(proto.Msg) error) error {
	m, err := proto.Unmarshal(bytes.Clone(frame))
	if err != nil {
		return err
	}
	r.msgs = append(r.msgs, m)
	r.handed = append(r.handed, frame)
	return nil
}

// frame marshals m for HandleFrame.
func frame(t *testing.T, m proto.Msg) []byte {
	t.Helper()
	b, err := proto.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	inj := faults.NewAgentInjector(inner.handle, noSchedule(t))
	f := frame(t, &proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1}})
	if err := inj.HandleFrame(f, nil); err != nil {
		t.Fatal(err)
	}
	if len(inner.handed) != 1 || &inner.handed[0][0] != &f[0] {
		t.Fatal("healthy mode must pass the borrowed frame through synchronously, uncopied")
	}
	// A frame the agent refuses is the caller's to count (a bridge's tap),
	// and is not delivered.
	if err := inj.HandleFrame([]byte{0xFF, 0xFF}, nil); err == nil {
		t.Fatal("healthy mode hid the agent's refusal of a bad frame")
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
	inj := faults.NewAgentInjector(inner.handle, noSchedule(t))
	inj.Pause()
	for seq := uint32(1); seq <= 3; seq++ {
		inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: seq}), nil)
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
	inj := faults.NewAgentInjector(inner.handle, sched.schedule)
	inj.SlowDown(700 * time.Millisecond)
	f := frame(t, &proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1}})
	inj.HandleFrame(f, nil)
	f[0] = 0xFF // the caller's to reuse once HandleFrame returns
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 2}), nil)
	if len(inner.msgs) != 0 {
		t.Fatal("slow delivery arrived before the delay elapsed")
	}
	sched.fireAll()
	if !sameSeqs(seqs(inner.msgs), 1, 2) {
		t.Fatalf("delayed delivery order %v, want 1,2", seqs(inner.msgs))
	}
	// HandleFrame only borrows the frame: a delayed delivery must be a copy.
	if &inner.handed[0][0] == &f[0] {
		t.Fatal("slow mode delivered the borrowed frame, not a copy")
	}
	if st := inj.Stats(); st.Delayed != 2 || st.Delivered != 2 {
		t.Fatalf("stats=%+v", st)
	}
	// SlowDown(0) restores synchronous passthrough.
	inj.SlowDown(0)
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 3}), nil)
	if !sameSeqs(seqs(inner.msgs), 1, 2, 3) {
		t.Fatalf("post-recovery delivery missing: %v", seqs(inner.msgs))
	}
}

// A delayed delivery that comes due while the agent is paused is held with
// the frames the pause caught, and replayed on Resume in arrival order: a
// stopped process handles nothing, however long it was queued.
func TestAgentInjectorSlowDeliveryDueDuringPauseIsHeld(t *testing.T) {
	inner := &recordingAgent{}
	sched := &manualScheduler{}
	inj := faults.NewAgentInjector(inner.handle, sched.schedule)
	inj.SlowDown(time.Second)
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 1}), nil)
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 2}), nil)
	inj.Pause()
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 3}), nil)
	sched.fireAll() // 1 and 2 come due on the paused agent
	if len(inner.msgs) != 0 {
		t.Fatalf("a paused agent was handed %v", seqs(inner.msgs))
	}
	if st := inj.Stats(); st.Held != 3 || st.Delivered != 0 {
		t.Fatalf("stats=%+v, want the two due deliveries held beside the third", st)
	}
	inj.Resume()
	if !sameSeqs(seqs(inner.msgs), 1, 2, 3) {
		t.Fatalf("replay order %v, want 1,2,3", seqs(inner.msgs))
	}
	if st := inj.Stats(); st.Replayed != 3 || st.Delivered != 3 {
		t.Fatalf("stats=%+v", st)
	}
}

// The error of a frame the agent refuses reaches the caller only in healthy
// pass-through; a held or delayed one is refused when it is delivered.
func TestAgentInjectorReturnsRefusalOnlyWhenHealthy(t *testing.T) {
	refuse := errors.New("refused")
	calls := 0
	inj := faults.NewAgentInjector(func([]byte, func(proto.Msg) error) error {
		calls++
		return refuse
	}, noSchedule(t))
	if err := inj.HandleFrame([]byte{1}, nil); err != refuse {
		t.Fatalf("healthy: err=%v, want the agent's", err)
	}
	inj.Pause()
	if err := inj.HandleFrame([]byte{1}, nil); err != nil {
		t.Fatalf("paused: err=%v, want nil", err)
	}
	inj.Resume()
	if st := inj.Stats(); calls != 2 || st.Delivered != 0 || st.Replayed != 1 {
		t.Fatalf("calls=%d stats=%+v: a refused frame is not delivered", calls, st)
	}
}

func TestAgentInjectorKillDropsHeldAndInflight(t *testing.T) {
	inner := &recordingAgent{}
	sched := &manualScheduler{}
	inj := faults.NewAgentInjector(inner.handle, sched.schedule)

	inj.Pause()
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 1}), nil)
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 2}), nil)
	inj.Kill()
	if st := inj.Stats(); st.DroppedOnKill != 2 {
		t.Fatalf("stats=%+v, want held messages lost with the process", st)
	}
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 3}), nil)
	if st := inj.Stats(); st.DroppedDead != 1 {
		t.Fatalf("stats=%+v", st)
	}
	if len(inner.msgs) != 0 {
		t.Fatal("dead agent received messages")
	}

	// In-flight slow deliveries scheduled before a Kill die with it too.
	inj.Restart(inner.handle)
	inj.SlowDown(time.Second)
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 4}), nil)
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
	inj := faults.NewAgentInjector(old.handle, sched.schedule)

	// A slow delivery in flight across a Restart belongs to the old process
	// generation and must not reach the new one.
	inj.SlowDown(time.Second)
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 1}), nil)
	fresh := &recordingAgent{}
	inj.Restart(fresh.handle)
	sched.fireAll()
	if len(old.msgs) != 0 || len(fresh.msgs) != 0 {
		t.Fatal("pre-restart in-flight delivery crossed the process boundary")
	}
	if inj.Mode() != faults.AgentHealthy {
		t.Fatalf("mode=%v after restart", inj.Mode())
	}
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 2}), nil)
	if len(fresh.msgs) != 1 || len(old.msgs) != 0 {
		t.Fatal("post-restart delivery did not go to the fresh process")
	}
}

func TestAgentInjectorSlowAfterPauseReplaysFirst(t *testing.T) {
	inner := &recordingAgent{}
	sched := &manualScheduler{}
	inj := faults.NewAgentInjector(inner.handle, sched.schedule)
	inj.Pause()
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 1}), nil)
	inj.SlowDown(time.Second) // slow, not stopped: held backlog flushes now
	if !sameSeqs(seqs(inner.msgs), 1) {
		t.Fatalf("held message not replayed on SlowDown: %v", seqs(inner.msgs))
	}
	inj.HandleFrame(frame(t, &proto.Measurement{SID: 1, Seq: 2}), nil)
	if len(inner.msgs) != 1 {
		t.Fatal("slow-mode delivery was synchronous")
	}
	sched.fireAll()
	if !sameSeqs(seqs(inner.msgs), 1, 2) {
		t.Fatalf("delivery order %v, want 1,2", seqs(inner.msgs))
	}
}
