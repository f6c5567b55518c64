package runtime

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
)

func frameOf(t *testing.T, m proto.Msg) []byte {
	t.Helper()
	b, err := proto.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func meas(t *testing.T, sid, seq uint32) []byte {
	return frameOf(t, &proto.Measurement{SID: sid, Seq: seq, Fields: make([]float64, 7)})
}

// servedMailbox is a mailbox of size slots whose drainer is a shard
// goroutine, which the test plays by calling pop.
func servedMailbox(t *testing.T, size int) *mailbox {
	t.Helper()
	mb := newMailbox(size)
	var wg sync.WaitGroup
	if !mb.start(&wg) {
		t.Fatal("a new mailbox refused a shard goroutine")
	}
	return mb
}

func mustPush(t *testing.T, mb *mailbox, frame []byte) {
	t.Helper()
	if queued, drain := mb.push(item{}, frame); !queued || drain {
		t.Fatalf("push into a served open mailbox: queued %v, drain %v; want true and false", queued, drain)
	}
}

// refused pushes a frame into mb and says whether it was refused.
func refused(mb *mailbox, frame []byte) bool {
	queued, _ := mb.push(item{}, frame)
	return !queued
}

// msgOf decodes a popped entry's frame.
func msgOf(t *testing.T, it item) proto.Msg {
	t.Helper()
	m, err := proto.Unmarshal(it.frame)
	if err != nil {
		t.Fatalf("queued frame does not decode: %v", err)
	}
	return m
}

// A full mailbox blocks the pusher and never discards: the push waits until
// a pop makes room, and entries pop in push order, control and reports
// alike. A pusher still waiting when the mailbox closes is refused.
func TestMailboxBlocksWhenFull(t *testing.T) {
	mb := servedMailbox(t, 2)
	mustPush(t, mb, frameOf(t, &proto.Create{SID: 1}))
	mustPush(t, mb, meas(t, 1, 1))
	pushed := make(chan bool)
	m2 := meas(t, 1, 2)
	go func() { pushed <- !refused(mb, m2) }()
	select {
	case <-pushed:
		t.Fatal("a push into a full mailbox returned without waiting for room")
	case <-time.After(20 * time.Millisecond):
	}
	it, _ := mb.pop(nil, false)
	if m := msgOf(t, it); m.Type() != proto.TypeCreate {
		t.Fatalf("first entry is a %s, want the Create", m.Type())
	}
	if !<-pushed {
		t.Fatal("push refused by an open mailbox")
	}
	for _, seq := range []uint32{1, 2} {
		it, _ = mb.pop(it.frame, false)
		if m, ok := msgOf(t, it).(*proto.Measurement); !ok || m.Seq != seq {
			t.Fatalf("popped %+v, want the seq-%d measurement", m, seq)
		}
	}

	mustPush(t, mb, meas(t, 1, 3))
	mustPush(t, mb, meas(t, 1, 4))
	m5 := meas(t, 1, 5)
	go func() { pushed <- !refused(mb, m5) }()
	mb.close()
	if <-pushed {
		t.Fatal("a push waiting on a full mailbox was accepted after close")
	}
}

// A closed mailbox refuses frames and still takes an exec call, which runs
// after what was queued before close (shutdown drains it); once empty, the
// shard goroutine leaves, and the next exec call's caller drains.
func TestMailboxCloseSemantics(t *testing.T) {
	mb := servedMailbox(t, 4)
	mustPush(t, mb, meas(t, 1, 1))
	mb.close()
	if !refused(mb, meas(t, 1, 2)) {
		t.Fatal("push accepted after close")
	}
	call := item{do: func(*core.Agent) {}}
	if queued, drain := mb.push(call, nil); !queued || drain {
		t.Fatalf("exec call on a closed served mailbox: queued %v, drain %v; want true and false", queued, drain)
	}
	it, ok := mb.pop(nil, false)
	if !ok || msgOf(t, it).(*proto.Measurement).Seq != 1 {
		t.Fatalf("queued entry lost on close: ok=%v", ok)
	}
	if it, ok = mb.pop(it.frame, false); !ok || it.do == nil {
		t.Fatalf("the exec call queued after close did not pop: ok=%v", ok)
	}
	if _, ok := mb.pop(nil, false); ok {
		t.Fatal("pop reported an entry on a closed empty mailbox")
	}
	if queued, drain := mb.push(call, nil); !queued || !drain {
		t.Fatalf("exec call once the shard goroutine left: queued %v, drain %v; want both", queued, drain)
	}
}

// With no shard goroutine, the caller whose push finds the mailbox empty is
// its drainer, and the only one: later pushes queue behind it, its pops hand
// the entries over in order and give the mailbox up once it is empty. A shard
// goroutine started meanwhile waits until the draining caller lets go at its
// next entry, then pops the rest.
func TestMailboxCallerDrains(t *testing.T) {
	mb := newMailbox(4)
	push := func(seq uint32, wantDrain bool) {
		t.Helper()
		if queued, drain := mb.push(item{}, meas(t, 1, seq)); !queued || drain != wantDrain {
			t.Fatalf("push %d: queued %v, drain %v; want true and %v", seq, queued, drain, wantDrain)
		}
	}
	next := func(prev []byte, seq uint32) []byte { // the caller's pop
		t.Helper()
		it, ok := mb.pop(prev, true)
		if m, _ := msgOf(t, it).(*proto.Measurement); !ok || m.Seq != seq {
			t.Fatalf("the caller popped %+v (ok %v), want the seq-%d measurement", m, ok, seq)
		}
		return it.frame
	}
	push(1, true)
	push(2, false)
	prev := next(nil, 1)
	push(3, false)
	prev = next(prev, 2)
	prev = next(prev, 3)
	if _, ok := mb.pop(prev, true); ok || mb.busy {
		t.Fatalf("the caller's pop on an empty mailbox: ok %v, still draining %v", ok, mb.busy)
	}
	push(4, true)
	push(5, false)
	prev = next(nil, 4)

	var wg sync.WaitGroup
	if !mb.start(&wg) {
		t.Fatal("start refused on an open mailbox")
	}
	popped := make(chan item)
	go func() {
		it, _ := mb.pop(nil, false)
		popped <- it
	}()
	select {
	case <-popped:
		t.Fatal("the shard goroutine popped while a caller was draining")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := mb.pop(prev, true); ok {
		t.Fatal("a draining caller kept the mailbox after a shard goroutine started")
	}
	if m, _ := msgOf(t, <-popped).(*proto.Measurement); m.Seq != 5 {
		t.Fatalf("the shard goroutine popped %+v, want the seq-5 measurement", m)
	}
	if queued, drain := mb.push(item{}, meas(t, 1, 6)); !queued || drain {
		t.Fatalf("push into a served mailbox: queued %v, drain %v; want true and false", queued, drain)
	}
}

// The ring grows only as deep as the queue gets, never past the mailbox
// size, and a growth with the queue wrapped round the ring keeps push order.
func TestMailboxRingGrowsWithTheQueue(t *testing.T) {
	mb := servedMailbox(t, 20)
	if len(mb.buf) != 0 {
		t.Fatalf("a new mailbox has %d ring slots, want none", len(mb.buf))
	}
	seq := uint32(0)
	push := func(n int) {
		for range n {
			seq++
			mustPush(t, mb, meas(t, 1, seq))
		}
	}
	next := uint32(1)
	var prev []byte
	pop := func(n int) {
		for range n {
			it, ok := mb.pop(prev, false)
			if m, _ := msgOf(t, it).(*proto.Measurement); !ok || m.Seq != next {
				t.Fatalf("popped %+v, want the seq-%d measurement", m, next)
			}
			prev, next = it.frame, next+1
		}
	}
	push(5)
	pop(3)
	push(6) // 8 queued, wrapped round the 8-slot ring
	if len(mb.buf) != 8 || mb.head != 3 {
		t.Fatalf("ring of %d slots with head %d, want 8 and 3", len(mb.buf), mb.head)
	}
	push(1)
	if len(mb.buf) != 16 {
		t.Fatalf("ring of %d slots with 9 queued, want 16", len(mb.buf))
	}
	push(11)
	if len(mb.buf) != 20 || mb.n != 20 {
		t.Fatalf("ring of %d slots with %d queued, want the mailbox size, 20, full", len(mb.buf), mb.n)
	}
	pop(20)
	if len(mb.buf) != 20 {
		t.Fatalf("ring of %d slots after draining, want it kept at 20", len(mb.buf))
	}
}

// bufID names a buffer by its backing array.
func bufID(b []byte) *byte { return unsafe.SliceData(b) }

// A buffer goes round: what the shard hands back on pop is what the next
// push is copied into, whatever kind of message the next frame holds. No
// more than size+1 exist however the kinds mix.
func TestMailboxRecyclesBuffersWithinBound(t *testing.T) {
	mb := servedMailbox(t, 2)
	seen := make(map[*byte]bool)
	pop := func(prev []byte) item {
		t.Helper()
		it, ok := mb.pop(prev, false)
		if !ok {
			t.Fatal("pop found a closed mailbox")
		}
		seen[bufID(it.frame)] = true
		return it
	}
	lent := meas(t, 1, 1)
	mustPush(t, mb, lent)
	first := pop(nil)
	if bufID(first.frame) == bufID(lent) {
		t.Fatal("the mailbox queued the borrowed frame itself")
	}
	want := string(lent)
	for i := range lent {
		lent[i] ^= 0xFF // the lender reuses its scratch
	}
	if string(first.frame) != want {
		t.Fatalf("queued copy follows the lender's scratch: %x", first.frame)
	}
	lent = meas(t, 1, 2)
	mustPush(t, mb, lent)
	mustPush(t, mb, lent)
	second := pop(first.frame) // first's buffer is idle from here
	mustPush(t, mb, lent)
	third := pop(second.frame)
	fourth := pop(third.frame)
	if bufID(fourth.frame) != bufID(first.frame) {
		t.Fatal("the buffer handed back was not the one reused")
	}
	if len(seen) != 3 || len(mb.free) != 2 {
		t.Fatalf("%d buffers made, %d idle, want the 3 a 2-slot mailbox can have in use, 2 of them idle", len(seen), len(mb.free))
	}
	// Another kind arrives with every buffer already made: it takes an idle
	// one instead of adding to them.
	mustPush(t, mb, frameOf(t, &proto.Urgent{SID: 1, Seq: 1, Kind: proto.UrgentDupAck}))
	urgent := pop(fourth.frame)
	if u, ok := msgOf(t, urgent).(*proto.Urgent); !ok || u.Seq != 1 {
		t.Fatalf("popped %+v, want the urgent", u)
	}
	if len(seen) != 3 || len(mb.free) != 2 {
		t.Fatalf("%d buffers made, %d idle with the urgent in the shard's hands, want 3 and 2", len(seen), len(mb.free))
	}
	mb.close()
	if _, ok := mb.pop(urgent.frame, false); ok {
		t.Fatal("pop reported an entry on a closed empty mailbox")
	}
	if len(mb.free) != 3 {
		t.Fatalf("%d buffers idle after the urgent came back, want all 3", len(mb.free))
	}
}
