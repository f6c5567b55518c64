package runtime

import (
	"math"
	"sync"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/proto"
)

// mailbox is a shard's bounded queue: a mutex-guarded ring buffer rather
// than a channel, because overload-aware degradation needs an operation a
// channel cannot express — evicting the *oldest sheddable* entry to admit a
// new one. Measurement traffic is time-series data: when the agent falls
// behind, the newest report is worth more than the oldest, so pressure
// sheds from the front. Control-plane traffic (Create, Close, Urgent,
// Install acks via reply, drain sentinels) is never shed — losing it would
// corrupt flow state rather than merely coarsen it.
//
// The mailbox also owns the storage reports cross the shard boundary in.
// A dispatcher only borrows the message it routes, so push copies it into a
// container taken from the free lists, under the lock push holds anyway; the
// shard hands the container back on its next pop, under the lock pop holds
// anyway. A container is therefore always in exactly one place — queued, in
// the shard's hands, or free — and at most size+1 exist at a time (made
// counts them). The lists start empty and grow only as deep as the queue
// actually got: a quiet shard holds one or two containers, not a slab per
// mailbox slot.
type mailbox struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []item
	head     int
	n        int
	closed   bool
	// shedMark is the occupancy at or above which a push may evict the
	// oldest sheddable entry instead of blocking/dropping; 0 disables
	// shedding (pure channel semantics).
	shedMark int
	// free holds the idle containers, one stack per message type (only the
	// recycled types' are ever used) so an urgent between two measurements
	// does not cost either its storage.
	free [proto.TypeBatch + 1][]proto.Msg
	// made counts the containers in existence, wherever they are. A slot's
	// worth and the shard's one is all a single type can ever need, so when
	// that many exist and a type with none idle needs one, an idle container
	// of another type is given up for it.
	made int
}

// recycled says whether messages of type t cross in mailbox containers: the
// reports, bare or batched. Everything else (Create, Close, InstallErr,
// Heartbeat) is rare control traffic and crosses as a proto.Clone the
// collector reclaims.
func recycled(t proto.MsgType) bool {
	switch t {
	case proto.TypeMeasurement, proto.TypeVector, proto.TypeUrgent, proto.TypeBatch:
		return true
	}
	return false
}

// allReports says whether a batch carries nothing but bare reports, which
// is what makes its container worth keeping.
func allReports(b *proto.Batch) bool {
	for _, sub := range b.Msgs {
		if t := sub.Type(); !recycled(t) || t == proto.TypeBatch {
			return false
		}
	}
	return true
}

// shedReport describes a report push evicted: how many reports it carried
// (0: nothing was evicted), the flow to send the Backoff to, and the reply
// path it arrived with. The container itself is already back on a free list.
type shedReport struct {
	reports int
	sid     uint32
	reply   func(proto.Msg) error
}

func newMailbox(size, shedMark int) *mailbox {
	mb := &mailbox{buf: make([]item, size), shedMark: shedMark}
	mb.notFull = sync.NewCond(&mb.mu)
	mb.notEmpty = sync.NewCond(&mb.mu)
	return mb
}

// push enqueues a copy of it: it.m is borrowed, and what is queued is a
// container holding its deep copy (of the sub-messages keep accepts, when
// keep is non-nil and it.m a batch). A drain sentinel has no message and is
// queued as is. When occupancy has reached the shed watermark and an older
// sheddable entry exists, that entry is evicted to make room and described
// in shed. With no room and nothing sheddable, push blocks for space. ok is
// false only when the mailbox is closed.
func (mb *mailbox) push(it item, keep func(proto.Msg) bool) (shed shedReport, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.closed {
			return shedReport{}, false
		}
		if mb.shedMark > 0 && mb.n >= mb.shedMark {
			if s := mb.shedOldestLocked(); s.reports > 0 {
				mb.insertLocked(it, keep)
				return s, true
			}
		}
		if mb.n < len(mb.buf) {
			mb.insertLocked(it, keep)
			return shedReport{}, true
		}
		mb.notFull.Wait()
	}
}

// pop dequeues the oldest entry, blocking while the mailbox is open and
// empty, after taking back prev — the message of the entry the caller popped
// last and is done with (nil the first time, and after a sentinel). ok is
// false once the mailbox is closed and fully drained.
func (mb *mailbox) pop(prev proto.Msg) (it item, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.recycleLocked(prev)
	for mb.n == 0 {
		if mb.closed {
			return item{}, false
		}
		mb.notEmpty.Wait()
	}
	it = mb.buf[mb.head]
	mb.buf[mb.head] = item{}
	mb.head = (mb.head + 1) % len(mb.buf)
	mb.n--
	mb.notFull.Signal()
	return it, true
}

// close refuses further pushes; queued entries remain poppable so the shard
// drains them before exiting (matching the channel runtime's shutdown
// semantics).
func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.notFull.Broadcast()
	mb.notEmpty.Broadcast()
}

// insertLocked copies it.m into a container (see push) and appends the
// entry. Called only with room in the ring, so a container is never held by
// a pusher waiting for space.
func (mb *mailbox) insertLocked(it item, keep func(proto.Msg) bool) {
	if it.m != nil {
		it.m = mb.copyLocked(it.m, keep)
	}
	mb.buf[(mb.head+mb.n)%len(mb.buf)] = it
	mb.n++
	mb.notEmpty.Signal()
}

// copyLocked returns a deep copy of the borrowed m in a container off the
// free list for its type — a fresh one when the list is empty, and always
// for types that are not recycled.
func (mb *mailbox) copyLocked(m proto.Msg, keep func(proto.Msg) bool) proto.Msg {
	t := m.Type()
	if !recycled(t) {
		return proto.Clone(m)
	}
	c := mb.takeIdleLocked(t)
	if c == nil {
		// With size+1 in existence and a ring slot free, one is idle under
		// another type: give it up for the one about to be made.
		for other := range mb.free {
			if mb.made <= len(mb.buf) {
				break
			}
			if mb.takeIdleLocked(proto.MsgType(other)) != nil {
				mb.made--
			}
		}
		mb.made++
	}
	if keep != nil {
		cb, _ := c.(*proto.Batch)
		return proto.CloneBatchInto(cb, m.(*proto.Batch), keep)
	}
	return proto.CloneInto(c, m)
}

// takeIdleLocked pops an idle container of type t, nil when there is none.
func (mb *mailbox) takeIdleLocked(t proto.MsgType) proto.Msg {
	l := mb.free[t]
	if len(l) == 0 {
		return nil
	}
	c := l[len(l)-1]
	l[len(l)-1] = nil
	mb.free[t] = l[:len(l)-1]
	return c
}

// recycleLocked puts a container nobody reads any more back on its free
// list. A message of a type that is not recycled (or none: a sentinel's) is
// left to the collector, and so is a batch container that took in control
// messages: it would keep their strings alive.
func (mb *mailbox) recycleLocked(m proto.Msg) {
	if m == nil {
		return
	}
	t := m.Type()
	if !recycled(t) {
		return
	}
	if b, ok := m.(*proto.Batch); ok && !allReports(b) {
		mb.made--
		return
	}
	if bufpool.DebugEnabled {
		poison(m)
	}
	mb.free[t] = append(mb.free[t], m)
}

// poison overwrites a container going back to a free list (under -tags
// debugpool), so anything still reading it — an algorithm that kept
// Measurement.Values past OnMeasurement, a reply that kept what it was lent
// — sees NaNs and flow 0xDBDBDBDB instead of a plausible stale report.
func poison(m proto.Msg) {
	const sid = 0xDBDBDBDB
	nan := math.NaN()
	switch v := m.(type) {
	case *proto.Measurement:
		v.SID = sid
		for i := range v.Fields {
			v.Fields[i] = nan
		}
	case *proto.Vector:
		v.SID = sid
		for i := range v.Data {
			v.Data[i] = nan
		}
	case *proto.Urgent:
		v.SID, v.Value = sid, nan
	case *proto.Batch:
		for _, sub := range v.Msgs {
			poison(sub)
		}
	}
}

// shedOldestLocked evicts the oldest sheddable entry, compacting the ring,
// and recycles its container once it has been described. With nothing
// sheddable queued it returns the zero shedReport.
func (mb *mailbox) shedOldestLocked() shedReport {
	for off := 0; off < mb.n; off++ {
		i := (mb.head + off) % len(mb.buf)
		if !sheddable(mb.buf[i]) {
			continue
		}
		s := mb.buf[i]
		// Shift everything after the hole forward one slot.
		for j := off; j < mb.n-1; j++ {
			from := (mb.head + j + 1) % len(mb.buf)
			to := (mb.head + j) % len(mb.buf)
			mb.buf[to] = mb.buf[from]
		}
		mb.buf[(mb.head+mb.n-1)%len(mb.buf)] = item{}
		mb.n--
		mb.notFull.Signal()
		shed := shedReport{reports: reportCount(s.m), sid: backoffSID(s.m), reply: s.reply}
		mb.recycleLocked(s.m)
		return shed
	}
	return shedReport{}
}

// sheddable reports whether an entry carries only measurement reports.
// Urgents, Create/Close, drain sentinels, and mixed batches are load-bearing
// control state and never shed.
func sheddable(it item) bool {
	if it.done != nil {
		return false
	}
	switch m := it.m.(type) {
	case *proto.Measurement, *proto.Vector:
		return true
	case *proto.Batch:
		for _, sub := range m.Msgs {
			switch sub.(type) {
			case *proto.Measurement, *proto.Vector:
			default:
				return false
			}
		}
		return len(m.Msgs) > 0
	}
	return false
}

// reportCount is how many reports an entry carries, for the shed counter.
func reportCount(m proto.Msg) int {
	if b, ok := m.(*proto.Batch); ok {
		return len(b.Msgs)
	}
	return 1
}

// backoffSID picks the flow a shed entry's Backoff should target.
func backoffSID(m proto.Msg) uint32 {
	if b, ok := m.(*proto.Batch); ok && len(b.Msgs) > 0 {
		return b.Msgs[0].FlowSID()
	}
	return m.FlowSID()
}
