package runtime

import (
	"math"
	"sync"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/proto"
)

// mailbox is a shard's bounded queue: a mutex-guarded ring buffer that
// blocks a push while it is full and a pop while it is empty. It is a ring
// under a lock rather than a channel because of the free lists below: a
// container is taken and handed back under the same lock the queue takes,
// so the copy a report crosses in costs no synchronization of its own.
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
	// free holds the idle containers, one stack per message type (only the
	// recycled types' are ever used) so an urgent between two measurements
	// does not cost either its storage.
	free [proto.TypeUrgent + 1][]proto.Msg
	// made counts the containers in existence, wherever they are. A slot's
	// worth and the shard's one is all a single type can ever need, so when
	// that many exist and a type with none idle needs one, an idle container
	// of another type is given up for it.
	made int
}

// recycled says whether messages of type t cross in mailbox containers: the
// reports. Everything else (Create, Close, InstallErr, Heartbeat) is rare
// control traffic and crosses as a proto.Clone the collector reclaims.
func recycled(t proto.MsgType) bool {
	switch t {
	case proto.TypeMeasurement, proto.TypeVector, proto.TypeUrgent:
		return true
	}
	return false
}

func newMailbox(size int) *mailbox {
	mb := &mailbox{buf: make([]item, size)}
	mb.notFull = sync.NewCond(&mb.mu)
	mb.notEmpty = sync.NewCond(&mb.mu)
	return mb
}

// push enqueues a copy of it: it.m is borrowed, and what is queued is a
// container holding its deep copy, taken only once there is room in the ring
// so that no container is held by a pusher waiting for space. A drain
// sentinel has no message and is queued as is. With no room, push blocks for
// space. It returns false only when the mailbox is closed.
func (mb *mailbox) push(it item) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for !mb.closed && mb.n == len(mb.buf) {
		mb.notFull.Wait()
	}
	if mb.closed {
		return false
	}
	if it.m != nil {
		it.m = mb.copyLocked(it.m)
	}
	mb.buf[(mb.head+mb.n)%len(mb.buf)] = it
	mb.n++
	mb.notEmpty.Signal()
	return true
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

// copyLocked returns a deep copy of the borrowed m in a container off the
// free list for its type — a fresh one when the list is empty, and always
// for types that are not recycled.
func (mb *mailbox) copyLocked(m proto.Msg) proto.Msg {
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
// left to the collector.
func (mb *mailbox) recycleLocked(m proto.Msg) {
	if m == nil {
		return
	}
	t := m.Type()
	if !recycled(t) {
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
	}
}
