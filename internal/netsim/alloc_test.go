package netsim

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// TestAllocsScheduleDispatch locks in the event queue's zero-allocation
// steady state: once the arena, heap, free list, and per-slot timer handles
// have warmed up, a schedule+dispatch cycle must not touch the heap.
func TestAllocsScheduleDispatch(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := New(1)
	// Precomputed callback: closures allocated per iteration would be charged
	// to the test, not the simulator.
	var fired int
	fn := func() { fired++ }

	// Warm up the arena and heap capacity.
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run(time.Second)

	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch allocated %.1f times per op, want 0", allocs)
	}

	// Stop path: schedule, cancel, let compaction recycle — also free.
	allocs = testing.AllocsPerRun(1000, func() {
		tm := s.Schedule(time.Millisecond, fn)
		tm.Stop()
	})
	if allocs != 0 {
		t.Fatalf("schedule+stop allocated %.1f times per op, want 0", allocs)
	}
}

// TestPendingShrinksAfterMassCancellation is the stopped-timer retention
// regression test: cancelling most of the queue must compact it well before
// the deadlines pass (previously every cancelled RTO sat in the heap until
// its deadline, so Pending() grew without bound).
func TestPendingShrinksAfterMassCancellation(t *testing.T) {
	s := New(1)
	const n = 1000
	timers := make([]cc.Timer, 0, n)
	for i := 0; i < n; i++ {
		// Long deadlines: none of these fire during the test.
		timers = append(timers, s.Schedule(time.Hour, func() {}))
	}
	if got := s.Pending(); got != n {
		t.Fatalf("Pending=%d, want %d", got, n)
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop reported not-pending for a pending timer")
		}
	}
	if got := s.Pending(); got > n/2 {
		t.Fatalf("Pending=%d after cancelling all %d timers; compaction did not run", got, n)
	}
}

// TestCompactionPreservesOrder cancels interleaved timers and checks the
// survivors still dispatch in exact (at, seq) order.
func TestCompactionPreservesOrder(t *testing.T) {
	s := New(1)
	var got []int
	var cancel []cc.Timer
	for i := 0; i < 200; i++ {
		i := i
		tm := s.Schedule(time.Duration(200-i)*time.Millisecond, func() { got = append(got, i) })
		if i%2 == 0 {
			cancel = append(cancel, tm)
		}
	}
	for _, tm := range cancel {
		tm.Stop()
	}
	s.Run(time.Hour)
	if len(got) != 100 {
		t.Fatalf("ran %d events, want 100", len(got))
	}
	for j := 1; j < len(got); j++ {
		// Deadline 200-i ms: later i fires earlier, so got must be strictly
		// decreasing.
		if got[j] >= got[j-1] {
			t.Fatalf("dispatch out of order at %d: %v", j, got[:j+1])
		}
	}
}

// TestStaleHandleStopIsNoop checks the generation guard: Stop on a handle
// whose event already fired is a no-op while the slot sits on the free list.
// (Once the slot is *reused* the handle is re-armed for the new occupant —
// that is why the Timer contract forbids retaining dead handles.)
func TestStaleHandleStopIsNoop(t *testing.T) {
	s := New(1)
	stale := s.Schedule(time.Millisecond, func() {})
	s.Run(time.Second) // fires; slot freed, handle now stale
	if stale.Stop() {
		t.Fatal("stale handle Stop reported pending")
	}
}
