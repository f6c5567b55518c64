package runtime

import (
	"testing"
	"time"
	"unsafe"

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

func mustPush(t *testing.T, mb *mailbox, frame []byte) {
	t.Helper()
	if !mb.push(item{}, frame) {
		t.Fatal("push refused by an open mailbox")
	}
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
	mb := newMailbox(2)
	mustPush(t, mb, frameOf(t, &proto.Create{SID: 1}))
	mustPush(t, mb, meas(t, 1, 1))
	pushed := make(chan bool)
	m2 := meas(t, 1, 2)
	go func() { pushed <- mb.push(item{}, m2) }()
	select {
	case <-pushed:
		t.Fatal("a push into a full mailbox returned without waiting for room")
	case <-time.After(20 * time.Millisecond):
	}
	it, _ := mb.pop(nil)
	if m := msgOf(t, it); m.Type() != proto.TypeCreate {
		t.Fatalf("first entry is a %s, want the Create", m.Type())
	}
	if !<-pushed {
		t.Fatal("push refused by an open mailbox")
	}
	for _, seq := range []uint32{1, 2} {
		it, _ = mb.pop(it.frame)
		if m, ok := msgOf(t, it).(*proto.Measurement); !ok || m.Seq != seq {
			t.Fatalf("popped %+v, want the seq-%d measurement", m, seq)
		}
	}

	mustPush(t, mb, meas(t, 1, 3))
	mustPush(t, mb, meas(t, 1, 4))
	m5 := meas(t, 1, 5)
	go func() { pushed <- mb.push(item{}, m5) }()
	mb.close()
	if <-pushed {
		t.Fatal("a push waiting on a full mailbox was accepted after close")
	}
}

func TestMailboxCloseSemantics(t *testing.T) {
	mb := newMailbox(4)
	mustPush(t, mb, meas(t, 1, 1))
	mb.close()
	if mb.push(item{}, meas(t, 1, 2)) {
		t.Fatal("push accepted after close")
	}
	// Entries queued before close stay poppable (shutdown drains them).
	it, ok := mb.pop(nil)
	if !ok || msgOf(t, it).(*proto.Measurement).Seq != 1 {
		t.Fatalf("queued entry lost on close: ok=%v", ok)
	}
	if _, ok := mb.pop(it.frame); ok {
		t.Fatal("pop reported an entry on a closed empty mailbox")
	}
}

// The ring grows only as deep as the queue gets, never past the mailbox
// size, and a growth with the queue wrapped round the ring keeps push order.
func TestMailboxRingGrowsWithTheQueue(t *testing.T) {
	mb := newMailbox(20)
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
			it, ok := mb.pop(prev)
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
	mb := newMailbox(2)
	seen := make(map[*byte]bool)
	pop := func(prev []byte) item {
		t.Helper()
		it, ok := mb.pop(prev)
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
	if _, ok := mb.pop(urgent.frame); ok {
		t.Fatal("pop reported an entry on a closed empty mailbox")
	}
	if len(mb.free) != 3 {
		t.Fatalf("%d buffers idle after the urgent came back, want all 3", len(mb.free))
	}
}
