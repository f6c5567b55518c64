// Package netsim is the analysistest corpus for the simdeterminism
// analyzer; its import path ends in "netsim", putting it in scope.
package netsim

import (
	"math/rand"
	"time"
)

type event struct {
	at   time.Duration
	flow uint32
}

type queue struct{ events []event }

func (q *queue) Schedule(e event) {}

// --- positive cases ---

func wallClock() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func wallElapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since reads the wall clock`
}

func sleepy() {
	time.Sleep(time.Millisecond) // want `time.Sleep reads the wall clock`
}

func globalRand() int {
	return rand.Intn(10) // want `global rand.Intn`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global rand.Shuffle`
}

func spawns(done chan struct{}) {
	go func() { close(done) }() // want `goroutine spawn in deterministic package`
}

func mapOrderSchedules(q *queue, flows map[uint32]event) {
	for _, e := range flows { // want `map iteration order feeds Schedule call`
		q.Schedule(e)
	}
}

func mapOrderAppends(flows map[uint32]event) []event {
	var out []event
	for _, e := range flows { // want `map iteration order feeds an append`
		out = append(out, e)
	}
	return out
}

func mapOrderSends(ch chan event, flows map[uint32]event) {
	for _, e := range flows { // want `map iteration order feeds a channel send`
		ch <- e
	}
}

// --- negative cases ---

// Seeded randomness threaded explicitly is the blessed pattern.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func usesSeeded(rng *rand.Rand) int {
	return rng.Intn(10) // method on an explicit source: fine
}

// Simulated time is plain arithmetic, not the wall clock.
func simTime(now, dt time.Duration) time.Duration {
	return now + dt
}

// Commutative map folds do not depend on iteration order.
func mapFold(flows map[uint32]event) time.Duration {
	var sum time.Duration
	for _, e := range flows {
		sum += e.at
	}
	return sum
}

// Ranging over a slice is ordered and fine, whatever the body does.
func sliceOrder(q *queue, events []event) {
	for _, e := range events {
		q.Schedule(e)
	}
}
