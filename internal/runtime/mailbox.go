package runtime

import "sync"

// mailbox is a shard's bounded queue: a mutex-guarded ring buffer that
// blocks a push while it is full. It is a ring under a lock rather than a
// channel because of the free list below: a buffer is taken and handed back
// under the same lock the queue takes, so the copy a frame crosses in costs
// no synchronization of its own.
//
// The mailbox also owns the storage frames cross the shard boundary in. A
// dispatcher only borrows the frame it routes, so push copies its bytes into
// a buffer taken from the free list, under the lock push holds anyway; the
// drainer hands the buffer back when it takes its next entry, under the lock
// it takes then anyway. A buffer is therefore always in exactly one place —
// queued, in the drainer's hands, or free — and one is made only when none
// is free, once there is room in the ring: at most size+1 exist at a time,
// whatever the frames are. The list starts empty and grows only as deep as
// the queue actually got, and so does the ring itself: a quiet shard holds
// one or two buffers and a few slots, not a slab per mailbox slot.
//
// One drainer at a time takes entries out, and the mailbox says who. Once a
// serve loop has started one (start), it is the shard goroutine, which pops
// until the mailbox is closed and empty. Before that, it is whichever caller
// pushed into an empty mailbox: push tells that caller to drain, and it pops
// until none is left. With no drainer the mailbox is empty, so the entry a
// draining caller pushed is the first it takes.
type mailbox struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond // the shard goroutine's: an entry, or a caller done draining
	buf      []item     // the ring: grown as the queue deepens, up to size
	size     int
	head     int
	n        int
	closed   bool
	served   bool     // a shard goroutine drains, from start until it exits
	busy     bool     // a caller drains, from its push until pop finds nothing
	free     [][]byte // idle buffers, any length
}

func newMailbox(size int) *mailbox {
	mb := &mailbox{size: size}
	mb.notFull = sync.NewCond(&mb.mu)
	mb.notEmpty = sync.NewCond(&mb.mu)
	return mb
}

// push enqueues it with a copy of frame, which is borrowed: what is queued
// is a buffer off the free list holding its bytes, taken only once there is
// room in the ring so that no buffer is held by a pusher waiting for space.
// An exec call has no frame and is queued as is. With no room, push blocks
// for space. Once the mailbox is closed it refuses a frame (queued false) but
// still queues an exec call, to run after what is left in it. drain is true
// when the mailbox had no drainer: the caller now is one, and must drain
// (see Runtime.run).
func (mb *mailbox) push(it item, frame []byte) (queued, drain bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.n == mb.size && !(mb.closed && it.do == nil) {
		mb.notFull.Wait()
	}
	if mb.closed && it.do == nil {
		return false, false
	}
	if mb.n == len(mb.buf) {
		mb.growLocked()
	}
	if it.do == nil {
		var b []byte
		if k := len(mb.free) - 1; k >= 0 {
			b, mb.free[k] = mb.free[k], nil
			mb.free = mb.free[:k]
		}
		it.frame = append(b, frame...)
	}
	mb.buf[(mb.head+mb.n)%len(mb.buf)] = it
	mb.n++
	if !mb.served && !mb.busy {
		mb.busy = true
		return true, true
	}
	mb.notEmpty.Signal()
	return true, false
}

// growLocked doubles the ring (to at least 8 slots, at most size), keeping
// the queued entries in order.
func (mb *mailbox) growLocked() {
	buf := make([]item, min(max(2*len(mb.buf), 8), mb.size))
	for i := range mb.n {
		buf[i] = mb.buf[(mb.head+i)%len(mb.buf)]
	}
	mb.buf, mb.head = buf, 0
}

// pop dequeues the oldest entry for the drainer, after taking back prev —
// the frame of the entry it popped last and is done with (nil the first
// time, and after an exec call). The shard goroutine (caller false) blocks
// while the mailbox is empty or a caller is still draining it, and gets ok
// false once the mailbox is closed and fully drained. A draining caller never
// blocks: it gets ok false once the mailbox is empty or a shard goroutine
// waits to take over, and is no longer the drainer.
func (mb *mailbox) pop(prev []byte, caller bool) (it item, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if prev != nil {
		mb.free = append(mb.free, prev[:0])
	}
	if caller {
		if mb.n == 0 || mb.served {
			mb.busy = false
			mb.notEmpty.Signal()
			return item{}, false
		}
	} else {
		for mb.n == 0 || mb.busy {
			if mb.closed && mb.n == 0 && !mb.busy {
				mb.served = false
				return item{}, false
			}
			mb.notEmpty.Wait()
		}
	}
	it = mb.buf[mb.head]
	mb.buf[mb.head] = item{}
	mb.head = (mb.head + 1) % len(mb.buf)
	mb.n--
	mb.notFull.Signal()
	return it, true
}

// start makes a shard goroutine the mailbox's drainer unless one already is
// or the mailbox is closed, adding it to wg, and says whether the caller must
// now start it. A caller draining at the time hands over at its next entry.
func (mb *mailbox) start(wg *sync.WaitGroup) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.served || mb.closed {
		return false
	}
	mb.served = true
	wg.Add(1)
	return true
}

// close refuses further frames; queued entries remain poppable so the
// drainer runs them before it stops.
func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.notFull.Broadcast()
	mb.notEmpty.Broadcast()
}
