package runtime

import "sync"

// mailbox is a shard's bounded queue: a mutex-guarded ring buffer that
// blocks a push while it is full and a pop while it is empty. It is a ring
// under a lock rather than a channel because of the free list below: a
// buffer is taken and handed back under the same lock the queue takes, so
// the copy a frame crosses in costs no synchronization of its own.
//
// The mailbox also owns the storage frames cross the shard boundary in. A
// dispatcher only borrows the frame it routes, so push copies its bytes into
// a buffer taken from the free list, under the lock push holds anyway; the
// shard hands the buffer back on its next pop, under the lock pop holds
// anyway. A buffer is therefore always in exactly one place — queued, in the
// shard's hands, or free — and one is made only when none is free, once
// there is room in the ring: at most size+1 exist at a time, whatever the
// frames are. The list starts empty and grows only as deep as the queue
// actually got, and so does the ring itself: a quiet shard holds one or two
// buffers and a few slots, not a slab per mailbox slot.
type mailbox struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []item // the ring: grown as the queue deepens, up to size
	size     int
	head     int
	n        int
	closed   bool
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
// for space. It returns false only when the mailbox is closed.
func (mb *mailbox) push(it item, frame []byte) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for !mb.closed && mb.n == mb.size {
		mb.notFull.Wait()
	}
	if mb.closed {
		return false
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
	mb.notEmpty.Signal()
	return true
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

// pop dequeues the oldest entry, blocking while the mailbox is open and
// empty, after taking back prev — the frame of the entry the caller popped
// last and is done with (nil the first time, and after an exec call). ok is
// false once the mailbox is closed and fully drained.
func (mb *mailbox) pop(prev []byte) (it item, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if prev != nil {
		mb.free = append(mb.free, prev[:0])
	}
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
