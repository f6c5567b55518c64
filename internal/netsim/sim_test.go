package netsim

import (
	"testing"
	"time"
)

func TestSimRunsEventsInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	n := s.Run(time.Second)
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order=%v", order)
		}
	}
}

func TestSimSameTimeFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := New(1)
	var at []time.Duration
	s.Schedule(time.Millisecond, func() {
		at = append(at, s.Now())
		s.Schedule(time.Millisecond, func() {
			at = append(at, s.Now())
		})
	})
	s.Run(time.Second)
	if len(at) != 2 || at[0] != time.Millisecond || at[1] != 2*time.Millisecond {
		t.Fatalf("at=%v", at)
	}
}

func TestSimRunHorizon(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(2*time.Second, func() { ran = true })
	s.Run(time.Second)
	if ran {
		t.Fatal("event beyond horizon executed")
	}
	if s.Now() != time.Second {
		t.Fatalf("clock=%v, want 1s", s.Now())
	}
	s.Run(3 * time.Second)
	if !ran {
		t.Fatal("event not executed on later run")
	}
}

func TestSimTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.Schedule(time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("first Stop reported not-pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported pending")
	}
	s.Run(time.Second)
	if ran {
		t.Fatal("stopped timer fired")
	}
}

func TestSimHalt(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				s.Halt()
			}
		})
	}
	s.Run(time.Second)
	if count != 2 {
		t.Fatalf("count=%d, want 2", count)
	}
}

func TestSimScheduleInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	New(1).Schedule(-time.Second, func() {})
}

func TestSimDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var vals []float64
		var step func()
		step = func() {
			vals = append(vals, s.Rand().Float64())
			if len(vals) < 100 {
				s.Schedule(time.Duration(s.Rand().Intn(1000))*time.Microsecond, step)
			}
		}
		s.Schedule(0, step)
		s.Run(time.Hour)
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d", i)
		}
	}
}
