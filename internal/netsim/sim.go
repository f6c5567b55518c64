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

	"github.com/ccp-repro/ccp/internal/cc"
)

// Clock and Timer live in internal/cc, so that the datapath and the
// supervisor run on them without linking the simulator. Timer stays here only
// because benchmark/ spells it through this package, and only until the
// benchmark harness's next revision (ROADMAP item 2) spells it from cc.
type Timer = cc.Timer

// Sim is a discrete-event simulator. Create with New, schedule work with
// Schedule/AfterFunc, and drive it with Run or Step. Sim is not safe for
// concurrent use: everything runs on the caller's goroutine.
//
// The event queue is a 4-ary min-heap of entries, each an event's ordering
// key and the index of its slot in a free-listed arena: Schedule reuses
// arena slots and per-slot Timer handles, so the steady-state
// schedule/dispatch cycle performs no heap allocation (the container/heap
// predecessor allocated one *event per Schedule and boxed it on every
// push/pop). The key lives in the heap array itself, so ordering reads no
// arena slot. Ordering is by (at, seq) — a total order — so dispatch order
// is bit-identical to the binary-heap implementation's. A queued event costs
// 48 bytes (a 24-byte entry and a 24-byte slot), and each slot ever used
// keeps its 16-byte Timer handle.
type Sim struct {
	now    time.Duration
	seq    uint64
	rng    *rand.Rand
	halted bool

	heap    []entry // 4-ary min-heap ordered by (at, seq)
	arena   []slot
	free    []int32 // recycled arena slots
	stopped int     // lazily-cancelled events still occupying the heap
}

// entry is one queued event in the heap: its ordering key, and its arena
// slot.
type entry struct {
	at  time.Duration
	seq uint64
	idx int32
}

// before orders entries by (at, seq): earlier deadline first, scheduling
// order breaking ties.
func (e entry) before(o entry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// slot is one arena entry. gen distinguishes successive occupancies of the
// slot, so a stale Timer handle (retained past its event's lifetime) fails
// its Stop instead of cancelling the slot's next occupant.
type slot struct {
	fn      func()
	gen     uint32
	stopped bool
	// handle is this slot's reusable Timer, allocated on the slot's first
	// use and re-armed (gen updated) on every reuse.
	handle *simTimer
}

// simTimer implements cc.Timer for one occupancy of an arena slot.
type simTimer struct {
	s   *Sim
	idx int32
	gen uint32
}

// Stop implements cc.Timer. Cancellation is lazy — the event keeps its heap
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

// Now returns the current virtual time. Sim implements cc.Clock.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule runs fn at the current time plus d. A negative d panics: the
// simulator cannot travel backwards. Steady state (slots recycling through
// the free list, heap within capacity) this allocates nothing.
func (s *Sim) Schedule(d time.Duration, fn func()) cc.Timer {
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
	sl.fn = fn
	sl.stopped = false
	if sl.handle == nil {
		sl.handle = &simTimer{s: s, idx: idx}
	}
	sl.handle.gen = sl.gen
	s.heap = append(s.heap, entry{at: s.now + d, seq: s.seq, idx: idx})
	s.seq++
	s.siftUp(len(s.heap) - 1)
	return sl.handle
}

// AfterFunc implements cc.Clock; it is Schedule under the standard-library name.
func (s *Sim) AfterFunc(d time.Duration, fn func()) cc.Timer {
	return s.Schedule(d, fn)
}

// Run executes events in time order until the event queue is empty, the
// virtual clock passes until, or Halt is called. It returns the number of
// events executed.
func (s *Sim) Run(until time.Duration) int {
	n := 0
	s.halted = false
	for len(s.heap) > 0 && !s.halted {
		e := s.heap[0]
		if e.at > until {
			break
		}
		s.popRoot()
		sl := &s.arena[e.idx]
		if sl.stopped {
			s.stopped--
			s.freeSlot(e.idx)
			continue
		}
		fn := sl.fn
		s.freeSlot(e.idx)
		s.now = e.at
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
		e := s.heap[0]
		s.popRoot()
		sl := &s.arena[e.idx]
		if sl.stopped {
			s.stopped--
			s.freeSlot(e.idx)
			continue
		}
		fn := sl.fn
		s.freeSlot(e.idx)
		s.now = e.at
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
	for _, e := range s.heap {
		if s.arena[e.idx].stopped {
			s.freeSlot(e.idx)
		} else {
			keep = append(keep, e)
		}
	}
	s.heap = keep
	s.stopped = 0
	for i := (len(s.heap) - 2) / 4; i >= 0; i-- {
		s.siftDown(i)
	}
}

// siftUp moves the entry at i up to its place, shifting the parents it
// passes down into the hole it leaves.
func (s *Sim) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown moves the entry at i down to its place, shifting the least child
// up into the hole at each level.
func (s *Sim) siftDown(i int) {
	h := s.heap
	n := len(h)
	if i >= n {
		return
	}
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].before(h[least]) {
				least = c
			}
		}
		if !h[least].before(e) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = e
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
