package runtime

import (
	"testing"

	"github.com/ccp-repro/ccp/internal/proto"
)

func meas(sid, seq uint32) item {
	return item{m: &proto.Measurement{SID: sid, Seq: seq, Fields: []float64{1}}}
}

func mustPush(t *testing.T, mb *mailbox, it item) (shedReport, bool) {
	t.Helper()
	shed, ok := mb.push(it, nil)
	if !ok {
		t.Fatal("push refused by an open mailbox")
	}
	return shed, shed.reports > 0
}

func (mb *mailbox) len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.n
}

func TestMailboxShedsOldestReportAtWatermark(t *testing.T) {
	mb := newMailbox(4, 2)
	mustPush(t, mb, meas(1, 1))
	mustPush(t, mb, item{m: &proto.Urgent{SID: 1, Seq: 1}})
	// Occupancy is at the watermark: this push must evict the oldest
	// sheddable entry (the seq-1 measurement), not the urgent in front of it.
	shed, didShed := mustPush(t, mb, meas(1, 2))
	if !didShed {
		t.Fatal("no shed at watermark occupancy")
	}
	if shed.reports != 1 || shed.sid != 1 {
		t.Fatalf("shed %+v, want one report of flow 1", shed)
	}
	// Survivors pop in FIFO order: urgent first, then the new measurement
	// (so the one shed was the seq-1 measurement).
	it, _ := mb.pop(nil)
	if _, ok := it.m.(*proto.Urgent); !ok {
		t.Fatalf("first survivor is %T, want Urgent", it.m)
	}
	it, _ = mb.pop(it.m)
	if m, ok := it.m.(*proto.Measurement); !ok || m.Seq != 2 {
		t.Fatalf("second survivor is %T %+v, want seq-2 measurement", it.m, it.m)
	}
	if mb.len() != 0 {
		t.Fatalf("len=%d after draining", mb.len())
	}
}

func TestMailboxNeverShedsControl(t *testing.T) {
	mb := newMailbox(4, 1)
	mixed := &proto.Batch{Msgs: []proto.Msg{
		&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1}},
		&proto.Close{SID: 1},
	}}
	mustPush(t, mb, item{m: &proto.Create{SID: 1}})
	mustPush(t, mb, item{m: &proto.Urgent{SID: 1, Seq: 1}})
	mustPush(t, mb, item{m: mixed})
	// Above the watermark with only control-plane entries queued: there is
	// nothing to evict, so the newcomer takes a free slot and every control
	// entry stays.
	if shed, _ := mustPush(t, mb, meas(1, 9)); shed.reports != 0 {
		t.Fatalf("shed=%+v, want no eviction of a control entry", shed)
	}
	for _, want := range []string{"*proto.Create", "*proto.Urgent", "*proto.Batch", "other"} {
		it, popOK := mb.pop(nil)
		if !popOK {
			t.Fatal("queue lost a control entry")
		}
		if got := typeName(it.m); got != want {
			t.Fatalf("popped %s, want %s", got, want)
		}
	}
}

func typeName(m proto.Msg) string {
	switch m.(type) {
	case *proto.Create:
		return "*proto.Create"
	case *proto.Urgent:
		return "*proto.Urgent"
	case *proto.Batch:
		return "*proto.Batch"
	}
	return "other"
}

func TestSheddableClassification(t *testing.T) {
	report := &proto.Measurement{SID: 1, Seq: 1}
	cases := []struct {
		name string
		it   item
		want bool
	}{
		{"measurement", item{m: report}, true},
		{"vector", item{m: &proto.Vector{SID: 1, Seq: 1}}, true},
		{"report batch", item{m: &proto.Batch{Msgs: []proto.Msg{report, &proto.Vector{SID: 2, Seq: 1}}}}, true},
		{"empty batch", item{m: &proto.Batch{}}, false},
		{"mixed batch", item{m: &proto.Batch{Msgs: []proto.Msg{report, &proto.Create{SID: 2}}}}, false},
		{"create", item{m: &proto.Create{SID: 1}}, false},
		{"close", item{m: &proto.Close{SID: 1}}, false},
		{"urgent", item{m: &proto.Urgent{SID: 1, Seq: 1}}, false},
		{"drain sentinel", item{done: make(chan struct{})}, false},
	}
	for _, c := range cases {
		if got := sheddable(c.it); got != c.want {
			t.Errorf("sheddable(%s)=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestMailboxShedThenRecover(t *testing.T) {
	mb := newMailbox(4, 3)
	for seq := uint32(1); seq <= 3; seq++ {
		mustPush(t, mb, meas(1, seq))
	}
	if _, didShed := mustPush(t, mb, meas(1, 4)); !didShed {
		t.Fatal("no shed at watermark")
	}
	// Drain fully: pressure is gone, so subsequent pushes below the
	// watermark must not shed and must preserve FIFO order.
	for mb.len() > 0 {
		mb.pop(nil)
	}
	for seq := uint32(10); seq < 12; seq++ {
		if _, didShed := mustPush(t, mb, meas(1, seq)); didShed {
			t.Fatalf("shed below watermark after recovery (seq %d)", seq)
		}
	}
	for seq := uint32(10); seq < 12; seq++ {
		it, _ := mb.pop(nil)
		if m := it.m.(*proto.Measurement); m.Seq != seq {
			t.Fatalf("popped seq %d, want %d (order broken after recovery)", m.Seq, seq)
		}
	}
}

func TestMailboxCloseSemantics(t *testing.T) {
	mb := newMailbox(4, 0)
	mustPush(t, mb, meas(1, 1))
	mb.close()
	if _, ok := mb.push(meas(1, 2), nil); ok {
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
// kinds mix, and a batch that took in a control message is not kept.
func TestMailboxRecyclesContainersWithinBound(t *testing.T) {
	mb := newMailbox(2, 0)
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
	mustPush(t, mb, item{m: &proto.Batch{Msgs: []proto.Msg{lent, &proto.Close{SID: 1}}}})
	mixed, _ := mb.pop(urgent.m)
	if mb.made != 3 || idle(mb) != 2 || len(mb.free[proto.TypeUrgent]) != 1 {
		t.Fatalf("made=%d idle=%d urgents idle=%d, want 3, 2 and 1", mb.made, idle(mb), len(mb.free[proto.TypeUrgent]))
	}
	mb.close()
	if _, ok := mb.pop(mixed.m); ok {
		t.Fatal("pop reported an entry on a closed empty mailbox")
	}
	if mb.made != 2 || idle(mb) != 2 {
		t.Fatalf("made=%d idle=%d after a batch with a Close in it came back, want it let go: 2 and 2", mb.made, idle(mb))
	}
}
