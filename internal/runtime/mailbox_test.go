package runtime

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/proto"
)

func meas(sid, seq uint32) item {
	return item{m: &proto.Measurement{SID: sid, Seq: seq, Fields: []float64{1}}}
}

func mustPush(t *testing.T, mb *mailbox, it item) {
	t.Helper()
	if !mb.push(it) {
		t.Fatal("push refused by an open mailbox")
	}
}

// A full mailbox blocks the pusher and never discards: the push waits until
// a pop makes room, and entries pop in push order, control and reports
// alike. A pusher still waiting when the mailbox closes is refused.
func TestMailboxBlocksWhenFull(t *testing.T) {
	mb := newMailbox(2)
	mustPush(t, mb, item{m: &proto.Create{SID: 1}})
	mustPush(t, mb, meas(1, 1))
	pushed := make(chan bool)
	go func() { pushed <- mb.push(meas(1, 2)) }()
	select {
	case <-pushed:
		t.Fatal("a push into a full mailbox returned without waiting for room")
	case <-time.After(20 * time.Millisecond):
	}
	it, _ := mb.pop(nil)
	if _, ok := it.m.(*proto.Create); !ok {
		t.Fatalf("first entry is %T, want the Create", it.m)
	}
	if !<-pushed {
		t.Fatal("push refused by an open mailbox")
	}
	for _, seq := range []uint32{1, 2} {
		it, _ = mb.pop(it.m)
		if m, ok := it.m.(*proto.Measurement); !ok || m.Seq != seq {
			t.Fatalf("popped %T %+v, want the seq-%d measurement", it.m, it.m, seq)
		}
	}

	mustPush(t, mb, meas(1, 3))
	mustPush(t, mb, meas(1, 4))
	go func() { pushed <- mb.push(meas(1, 5)) }()
	mb.close()
	if <-pushed {
		t.Fatal("a push waiting on a full mailbox was accepted after close")
	}
}

func TestMailboxCloseSemantics(t *testing.T) {
	mb := newMailbox(4)
	mustPush(t, mb, meas(1, 1))
	mb.close()
	if mb.push(meas(1, 2)) {
		t.Fatal("push accepted after close")
	}
	// Entries queued before close stay poppable (shutdown drains them).
	it, ok := mb.pop(nil)
	if !ok || it.m.(*proto.Measurement).Seq != 1 {
		t.Fatalf("queued entry lost on close: ok=%v", ok)
	}
	if _, ok := mb.pop(it.m); ok {
		t.Fatal("pop reported an entry on a closed empty mailbox")
	}
}

// idle counts the containers on mb's free lists; the caller holds mb.mu or
// has the mailbox to itself.
func idle(mb *mailbox) int {
	n := 0
	for _, l := range mb.free {
		n += len(l)
	}
	return n
}

// A container goes round: what the shard hands back on pop is what the next
// push of that kind is copied into. No more than size+1 exist however the
// kinds mix.
func TestMailboxRecyclesContainersWithinBound(t *testing.T) {
	mb := newMailbox(2)
	lent := &proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1, 2}}
	mustPush(t, mb, item{m: lent})
	first, _ := mb.pop(nil)
	if first.m == proto.Msg(lent) {
		t.Fatal("the mailbox queued the borrowed message itself")
	}
	lent.Seq, lent.Fields[0] = 2, 9 // the lender reuses its scratch
	if got := first.m.(*proto.Measurement); got.Seq != 1 || got.Fields[0] != 1 {
		t.Fatalf("queued copy follows the lender's scratch: %+v", got)
	}
	mustPush(t, mb, item{m: lent})
	mustPush(t, mb, item{m: lent})
	second, _ := mb.pop(first.m) // first's container is idle from here
	mustPush(t, mb, item{m: lent})
	third, _ := mb.pop(second.m)
	fourth, _ := mb.pop(third.m)
	if fourth.m != first.m {
		t.Fatal("the container handed back was not the one reused")
	}
	if mb.made != 3 || idle(mb) != 2 {
		t.Fatalf("made=%d idle=%d, want the 3 a 2-slot mailbox can have in use, 2 of them idle", mb.made, idle(mb))
	}
	// Other kinds arrive with every container already made: each takes the
	// place of an idle one instead of adding to them.
	mustPush(t, mb, item{m: &proto.Urgent{SID: 1, Seq: 1}})
	urgent, _ := mb.pop(fourth.m)
	if mb.made != 3 || idle(mb) != 2 {
		t.Fatalf("made=%d idle=%d with the urgent in the shard's hands, want 3 and 2", mb.made, idle(mb))
	}
	mb.close()
	if _, ok := mb.pop(urgent.m); ok {
		t.Fatal("pop reported an entry on a closed empty mailbox")
	}
	if mb.made != 3 || idle(mb) != 3 || len(mb.free[proto.TypeUrgent]) != 1 {
		t.Fatalf("made=%d idle=%d urgents idle=%d after the urgent came back, want 3, 3 and 1",
			mb.made, idle(mb), len(mb.free[proto.TypeUrgent]))
	}
}
