// Package netsim is the analysistest corpus for the simdeterminism
// analyzer; its import path ends in "netsim", putting it in scope.
package netsim

import (
	"math/rand"
	"slices"
	"sort"
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

// An append is excused only by a sort of the same slice, in the very next
// statement, with nothing else order-sensitive in the body.
func mapSortsAnotherSlice(flows map[uint32]event, other []uint32) []uint32 {
	var sids []uint32
	for sid := range flows { // want `map iteration order feeds an append`
		sids = append(sids, sid)
	}
	sort.Slice(other, func(i, j int) bool { return other[i] < other[j] })
	return sids
}

func mapSortsLater(flows map[uint32]event) []uint32 {
	var sids []uint32
	for sid := range flows { // want `map iteration order feeds an append`
		sids = append(sids, sid)
	}
	n := len(sids)
	slices.Sort(sids)
	return sids[:n]
}

func mapSortedButSchedules(q *queue, flows map[uint32]event) []uint32 {
	var sids []uint32
	for sid, e := range flows { // want `map iteration order feeds Schedule call`
		sids = append(sids, sid)
		q.Schedule(e)
	}
	slices.Sort(sids)
	return sids
}

func mapAppendsTwoSortsOne(flows map[uint32]event) ([]uint32, []event) {
	var sids []uint32
	var events []event
	for sid, e := range flows { // want `map iteration order feeds an append`
		sids = append(sids, sid)
		events = append(events, e)
	}
	slices.Sort(sids)
	return sids, events
}

func mapAppendsShadow(flows map[uint32]event) []uint32 {
	var sids []uint32
	for sid := range flows { // want `map iteration order feeds an append`
		sids := append(sids, sid)
		_ = sids
	}
	slices.Sort(sids)
	return sids
}

// --- negative cases ---

// Appending to one slice that the next statement sorts fixes the order, with
// or without a filter in the body, whether the slice is a variable or a
// field.
func mapKeysSorted(flows map[uint32]event) []uint32 {
	sids := make([]uint32, 0, len(flows))
	for sid := range flows {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	return sids
}

func mapNamesSorted(algs map[string]event) []string {
	var names []string
	for name := range algs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

type table struct {
	flows   map[uint32]event
	scratch []uint32
}

func (t *table) busySorted() []uint32 {
	t.scratch = t.scratch[:0]
	for sid, e := range t.flows {
		if e.at == 0 {
			continue
		}
		t.scratch = append(t.scratch, sid)
	}
	slices.Sort(t.scratch)
	return t.scratch
}

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
