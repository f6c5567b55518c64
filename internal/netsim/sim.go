// Package netsim is a deterministic discrete-event network simulator. It
// provides a virtual clock, an event queue, links with serialization and
// propagation delay, and drop-tail queues with optional ECN marking. It is
// the substrate on which the simulated datapath (internal/tcp) and all
// simulation experiments run.
//
// Determinism: all randomness flows from the simulator's seeded RNG, and
// events scheduled for the same instant run in scheduling order, so a run is
// a pure function of its inputs.
package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Clock is the time source shared by the datapath and agent so that they run
// unchanged under simulation (virtual time) and over real transports
// (wall-clock time).
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
	// AfterFunc schedules fn to run after d. The returned timer can stop it.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending callback, analogous to *time.Timer.
//
// Lifetime: a Timer handle is live only while its callback is pending. Once
// the callback has fired, or Stop has returned true, the handle is dead and
// must be dropped — the simulator recycles the underlying event slot, so a
// retained dead handle may observe (and a Stop on it may cancel) an
// unrelated later event. The idiom throughout this repo is to nil the
// holding field inside the callback and after every Stop.
type Timer interface {
	// Stop cancels the callback and reports whether it was still pending.
	Stop() bool
}

// Sim is a discrete-event simulator. Create with New, schedule work with
// Schedule/AfterFunc, and drive it with Run or Step. Sim is not safe for
// concurrent use: everything runs on the caller's goroutine.
//
// The event queue is an index-based 4-ary min-heap over a free-listed event
// arena: Schedule reuses arena slots and per-slot Timer handles, so the
// steady-state schedule/dispatch cycle performs no heap allocation (the
// container/heap predecessor allocated one *event per Schedule and boxed it
// on every push/pop). Ordering is by (at, seq) — a total order — so dispatch
// order is bit-identical to the binary-heap implementation's.
type Sim struct {
	now    time.Duration
	seq    uint64
	rng    *rand.Rand
	halted bool

	heap    []int32 // slot indices, 4-ary min-heap ordered by (at, seq)
	arena   []slot
	free    []int32 // recycled arena slots
	stopped int     // lazily-cancelled events still occupying the heap
}

// slot is one arena entry. gen distinguishes successive occupancies of the
// slot, so a stale Timer handle (retained past its event's lifetime) fails
// its Stop instead of cancelling the slot's next occupant.
type slot struct {
	at      time.Duration
	seq     uint64
	fn      func()
	gen     uint32
	stopped bool
	// handle is this slot's reusable Timer, allocated on the slot's first
	// use and re-armed (gen updated) on every reuse.
	handle *simTimer
}

// simTimer implements Timer for one occupancy of an arena slot.
type simTimer struct {
	s   *Sim
	idx int32
	gen uint32
}

// Stop implements Timer. Cancellation is lazy — the event keeps its heap
// position until it reaches the root or a compaction sweeps it — but when
// cancelled events exceed half the heap they are compacted away, so mass
// cancellation (e.g. one abandoned RTO per ACK) cannot bloat the queue.
func (t *simTimer) Stop() bool {
	sl := &t.s.arena[t.idx]
	if sl.gen != t.gen || sl.stopped {
		return false
	}
	sl.stopped = true
	sl.fn = nil
	t.s.stopped++
	if t.s.stopped > len(t.s.heap)/2 {
		t.s.compact()
	}
	return true
}

// New returns a simulator whose randomness is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time. Sim implements Clock.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule runs fn at the current time plus d. A negative d panics: the
// simulator cannot travel backwards. Steady state (slots recycling through
// the free list, heap within capacity) this allocates nothing.
func (s *Sim) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: schedule in the past (d=%v)", d))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, slot{})
		idx = int32(len(s.arena) - 1)
	}
	sl := &s.arena[idx]
	sl.at = s.now + d
	sl.seq = s.seq
	s.seq++
	sl.fn = fn
	sl.stopped = false
	if sl.handle == nil {
		sl.handle = &simTimer{s: s, idx: idx}
	}
	sl.handle.gen = sl.gen
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
	return sl.handle
}

// AfterFunc implements Clock; it is Schedule under the standard-library name.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	return s.Schedule(d, fn)
}

// Run executes events in time order until the event queue is empty, the
// virtual clock passes until, or Halt is called. It returns the number of
// events executed.
func (s *Sim) Run(until time.Duration) int {
	n := 0
	s.halted = false
	for len(s.heap) > 0 && !s.halted {
		idx := s.heap[0]
		sl := &s.arena[idx]
		if sl.at > until {
			break
		}
		s.popRoot()
		if sl.stopped {
			s.stopped--
			s.freeSlot(idx)
			continue
		}
		at, fn := sl.at, sl.fn
		s.freeSlot(idx)
		s.now = at
		fn()
		n++
	}
	if s.now < until && !s.halted {
		// Advance the clock to the horizon even if events ran dry.
		s.now = until
	}
	return n
}

// Step executes the single next pending event, if any, and reports whether
// one ran.
func (s *Sim) Step() bool {
	for len(s.heap) > 0 {
		idx := s.heap[0]
		sl := &s.arena[idx]
		s.popRoot()
		if sl.stopped {
			s.stopped--
			s.freeSlot(idx)
			continue
		}
		at, fn := sl.at, sl.fn
		s.freeSlot(idx)
		s.now = at
		fn()
		return true
	}
	return false
}

// freeSlot retires an arena slot for reuse. Bumping gen invalidates any
// Timer handle still pointing at the finished occupancy.
func (s *Sim) freeSlot(idx int32) {
	sl := &s.arena[idx]
	sl.fn = nil
	sl.stopped = false
	sl.gen++
	s.free = append(s.free, idx)
}

// compact removes every cancelled event from the heap in one sweep and
// re-establishes the heap property bottom-up. Triggered by Stop once
// cancelled events outnumber live ones; dispatch order is unaffected because
// (at, seq) is a total order.
func (s *Sim) compact() {
	keep := s.heap[:0]
	for _, idx := range s.heap {
		if s.arena[idx].stopped {
			s.freeSlot(idx)
		} else {
			keep = append(keep, idx)
		}
	}
	s.heap = keep
	s.stopped = 0
	for i := (len(s.heap) - 2) / 4; i >= 0; i-- {
		s.siftDown(i)
	}
}

// less orders heap entries by (at, seq): earlier deadline first, scheduling
// order breaking ties.
func (s *Sim) less(a, b int32) bool {
	sa, sb := &s.arena[a], &s.arena[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (s *Sim) siftUp(i int) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (s *Sim) siftDown(i int) {
	h := s.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(h[c], h[min]) {
				min = c
			}
		}
		if !s.less(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// popRoot removes the minimum entry from the heap (the caller has already
// read s.heap[0]).
func (s *Sim) popRoot() {
	h := s.heap
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
}
