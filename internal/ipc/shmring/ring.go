package shmring

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/ipc"
)

// Send copies msg into the send ring as one length-prefixed record and
// publishes it with an atomic head store. When the ring is full it applies
// backpressure by polling — scheduler yields escalating to bounded sleeps —
// rather than parking on a doorbell, so producers never compete with the
// consumer side for doorbell reads (see DESIGN.md §11). The frame is
// published before Send returns; msg is not retained.
func (e *Endpoint) Send(msg []byte) error {
	need := uint64(4 + len(msg))
	if len(msg) > ipc.MaxFrame || need > e.sendR.size {
		return fmt.Errorf("shmring: frame of %d bytes exceeds limit", len(msg))
	}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	r := &e.sendR
	head := atomic.LoadUint64(r.head)
	yields := 0
	var sleep time.Duration
	for {
		if err := e.openForSend(); err != nil {
			return err
		}
		if r.size-(head-atomic.LoadUint64(r.tail)) >= need {
			break
		}
		fullWait(&yields, &sleep)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
	r.write(head, hdr[:])
	r.write(head+4, msg)
	atomic.StoreUint64(r.head, head+need)
	// Dekker-style wakeup: the consumer arms parked before re-checking
	// emptiness; we publish head before checking parked. Both sides use
	// sequentially consistent atomics, so at least one of them observes the
	// other and no wakeup is lost. The CAS means exactly one producer-side
	// ding per park.
	if atomic.CompareAndSwapUint32(r.parked, 1, 0) {
		e.wakePeer()
	}
	return nil
}

func (e *Endpoint) openForSend() error {
	if p := e.corrupt.Load(); p != nil {
		return *p
	}
	if e.closed.Load() || atomic.LoadUint32(e.peerClosed) != 0 {
		return ipc.ErrClosed
	}
	return nil
}

// fullWait is the producer's bounded backpressure: a few scheduler yields
// (with periodic OS yields so a one-CPU host runs the consumer process),
// then sleeps doubling up to 1ms. Worst-case staleness on a wedged consumer
// is therefore ~1ms per probe, and a closed peer is noticed on every probe.
func fullWait(yields *int, sleep *time.Duration) {
	*yields++
	if *yields <= 64 {
		if *yields&7 == 0 {
			osYield()
		} else {
			runtime.Gosched()
		}
		return
	}
	if *sleep == 0 {
		*sleep = time.Microsecond
	} else if *sleep < time.Millisecond {
		*sleep *= 2
	}
	time.Sleep(*sleep)
}

// Recv returns the next message as a fresh slice (copying out of the ring).
// Prefer RecvFrame on hot paths.
func (e *Endpoint) Recv() ([]byte, error) { return ipc.CopyFrame(e) }

// RecvFrame blocks until a message is available and returns a zero-copy view
// of it. The view aliases ring memory (or an endpoint-owned staging buffer
// when the record straddles the ring boundary) and is valid only until its
// Release, which advances the consumer cursor; at most one frame may be
// outstanding, and the next receive fails until the previous view is
// released. After the peer closes, queued messages are still drained before
// ipc.ErrClosed is returned.
func (e *Endpoint) RecvFrame() (*bufpool.Buf, error) {
	e.recvMu.Lock()
	defer e.recvMu.Unlock()
	spins, parked, waited := 0, false, false
	var waitStart time.Time
	for {
		f, err := e.tryRecvFrame()
		if f != nil || err != nil {
			if f != nil && waited {
				// Feed the adaptive-spin state: a wait that had to park, or
				// that burned more wall clock than spinning could ever
				// justify (one scheduler yield behind an in-process busy
				// goroutine costs a full ~10ms preemption slice), biases
				// future waits toward the OS-yield-then-park path; a wait
				// satisfied quickly while spinning re-enables the spin
				// phase. Frames found without waiting at all say nothing
				// about either mode and leave the state untouched (on a
				// saturated CPU the peer's reply is often already queued
				// when we return from our own timeslice — treating that as
				// "spinning works" would flap between modes and stall every
				// other receive).
				// Same-process peers never go starved: a Gosched hands the
				// CPU to the peer goroutine directly, so spinning is the
				// fast path no matter how busy the host is.
				starved := (parked || time.Since(waitStart) > starveWait) &&
					!e.peerInProcess()
				if e.spinStarved = starved; starved {
					e.parkStreak++
				} else {
					e.parkStreak = 0
				}
			}
			return f, err
		}
		if !waited {
			waited = true
			waitStart = time.Now()
		}
		if e.waitRecv(&spins) {
			parked = true
		}
	}
}

// TryRecvFrame is the non-blocking RecvFrame: it returns (nil, nil) when the
// ring is empty. Same view-ownership contract as RecvFrame.
func (e *Endpoint) TryRecvFrame() (*bufpool.Buf, error) {
	e.recvMu.Lock()
	defer e.recvMu.Unlock()
	return e.tryRecvFrame()
}

// tryRecvFrame pops one record if available. Caller holds recvMu.
func (e *Endpoint) tryRecvFrame() (*bufpool.Buf, error) {
	if p := e.corrupt.Load(); p != nil {
		return nil, *p
	}
	if e.pending.Load() != 0 {
		return nil, fmt.Errorf("shmring: previous frame not released")
	}
	r := &e.recvR
	tail := atomic.LoadUint64(r.tail)
	avail := atomic.LoadUint64(r.head) - tail
	if avail == 0 {
		// Drained. Closure is only reported once the queue is empty, so a
		// close never eats messages already published (chan/unix transports
		// behave the same way).
		if e.closed.Load() || atomic.LoadUint32(e.peerClosed) != 0 {
			return nil, ipc.ErrClosed
		}
		return nil, nil
	}
	var hdr [4]byte
	if avail < 4 {
		return nil, e.failAndClose("torn frame header (%d bytes available)", avail)
	}
	r.read(tail, hdr[:])
	n := uint64(binary.LittleEndian.Uint32(hdr[:]))
	if n > ipc.MaxFrame || 4+n > r.size || 4+n > avail {
		return nil, e.failAndClose("corrupt frame header (len=%d avail=%d ring=%d)", n, avail, r.size)
	}
	pos := (tail + 4) & r.mask
	var view []byte
	if pos+n <= r.size {
		// Contiguous: hand out the ring bytes themselves. The capacity is
		// pinned to the record so nothing downstream (debugpool poisoning
		// included) can touch bytes beyond the consumed region.
		view = r.data[pos : pos+n : pos+n]
	} else {
		// The record wraps the ring boundary; stage it in endpoint-owned
		// scratch (amortized zero-alloc: the buffer is reused and only grows).
		if uint64(cap(e.scratch)) < n {
			e.scratch = make([]byte, n)
		}
		e.scratch = e.scratch[:n]
		r.read(tail+4, e.scratch)
		view = e.scratch
	}
	e.pending.Store(uint32(4 + n))
	e.view.SetView(view)
	return e.view, nil
}

// releaseView is the view Buf's release hook: it returns the consumed
// record's bytes to the producer by advancing the tail cursor. The store is
// atomic (release), so the producer never observes reclaimed space before
// the consumer is done reading it.
func (e *Endpoint) releaseView() {
	p := e.pending.Swap(0)
	if p == 0 {
		return
	}
	r := &e.recvR
	atomic.StoreUint64(r.tail, atomic.LoadUint64(r.tail)+uint64(p))
}

// peerInProcess reports whether the peer endpoint lives in this process
// (Pair, tests, ./benchmark). The peer writes its pid into the header when
// it maps the file; the comparison is cached after the first sighting (the
// slot never changes once set). An unattached peer (slot still 0) reads as
// cross-process — the conservative answer for the starved-mode gate.
// Caller holds recvMu.
func (e *Endpoint) peerInProcess() bool {
	if !e.peerLocalKnown {
		pid := atomic.LoadUint32(e.peerPid)
		if pid == 0 {
			return false
		}
		e.peerLocal = pid == uint32(os.Getpid())
		e.peerLocalKnown = true
	}
	return e.peerLocal
}

// starveWait is the adaptive-spin mode switch: a satisfied wait that took
// longer than this (or that parked) marks the endpoint starved, because no
// amount of productive spinning costs hundreds of microseconds — only
// yields burned behind co-scheduled busy work do.
const starveWait = 200 * time.Microsecond
const starvedOSYields = 4

// waitRecv runs one step of the hybrid wait and reports whether it parked:
// burn the spin budget in scheduler yields (every fourth an OS yield, so a
// single-CPU box schedules the producer process), then park on the doorbell.
// When the previous satisfied wait starved (parked, or outlasted starveWait
// without parking), the spin phase is replaced by a handful of immediate OS
// yields and then the park — on a contended CPU each Gosched can cost a
// full scheduler timeslice behind in-process busy work, while sched_yield
// hands the CPU straight to the just-woken peer process; every 128th such
// wait re-probes the spin path so the endpoint recovers µs-level latency
// once the host idles.
// Parking is lost-wakeup-free: arm the parked flag, re-check for data and
// closure, and only then block — a producer that published after our check
// must observe parked=1 and ring the bell (see Send). The wait is bounded by
// parkTimeout purely as a crash backstop; spurious wakeups just loop.
func (e *Endpoint) waitRecv(spins *int) (parked bool) {
	*spins++
	budget := e.spinYields
	if e.spinStarved && e.parkStreak&127 != 0 {
		if *spins <= starvedOSYields {
			// A few OS yields before parking: on a ping-pong workload the
			// ding our own Send just delivered made the peer runnable, and
			// sched_yield hands it the CPU directly — the only
			// sub-preemption-slice path to the reply on a busy one-CPU
			// host, where a Gosched runs in-process busy goroutines for a
			// full ~10ms slice and a parked fd read waits out the same
			// slice before the netpoller runs. Counts as a park for the
			// adaptive state (it is the starved-mode path validating
			// itself).
			osYield()
			return true
		}
		budget = 0
	}
	if *spins <= budget {
		// Every 4th yield goes to the OS: cross-process peers only run via
		// sched_yield on a one-CPU host, and in-process peers have already
		// run after the first Gosched, so extra Goscheds are pure latency.
		if *spins&3 == 0 {
			osYield()
		} else {
			runtime.Gosched()
		}
		return false
	}
	*spins = 0
	r := &e.recvR
	atomic.StoreUint32(r.parked, 1)
	if r.avail() != 0 || e.closed.Load() || atomic.LoadUint32(e.peerClosed) != 0 {
		atomic.StoreUint32(r.parked, 0)
		// Data surfaced only after the spin budget ran out: for the
		// adaptive state this counts as a park (spinning did not find it),
		// even though we never blocked.
		return true
	}
	e.bell.wait(e.parkTimeout)
	atomic.StoreUint32(r.parked, 0)
	return true
}

// wakePeer rings the doorbell the peer registered in our send ring. The
// dialed connection is cached; errors are deliberately ignored (a missing or
// full doorbell only delays the peer until its parkTimeout re-check).
func (e *Endpoint) wakePeer() {
	r := &e.sendR
	e.peerMu.Lock()
	defer e.peerMu.Unlock()
	if e.peerConn == nil {
		n := atomic.LoadUint32(r.bellLen)
		if n == 0 || n > bellPathMax {
			return
		}
		c, err := dialBell(string(r.bellPath[:n]))
		if err != nil {
			return
		}
		e.peerConn = c
	}
	e.peerConn.SetWriteDeadline(time.Now().Add(time.Millisecond))
	if _, err := e.peerConn.Write(ding); err != nil {
		if ne, ok := err.(interface{ Timeout() bool }); !ok || !ne.Timeout() {
			// Not a full socket buffer — the bell may have been re-created;
			// drop the cached dial and try fresh on the next wakeup.
			e.peerConn.Close()
			e.peerConn = nil
		}
	}
}
