// Package lockorder is the analysistest corpus for the lockorder analyzer.
package lockorder

import "sync"

type shard struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	count int
}

type mailbox struct {
	mu    sync.Mutex
	items []int
}

func work() {}

// --- positive cases ---

func missingUnlock(s *shard) {
	s.mu.Lock() // want `s.mu.Lock is never released`
	s.count++
}

func missingUnlockOnlyOtherMutex(s *shard, m *mailbox) {
	s.mu.Lock() // want `s.mu.Lock is never released`
	m.mu.Lock()
	s.count++
	m.mu.Unlock()
}

func doubleLock(s *shard) {
	s.mu.Lock()
	s.count++
	s.mu.Lock() // want `s.mu.Lock while already held`
	s.count++
	s.mu.Unlock()
	s.mu.Unlock()
}

func missingRUnlock(s *shard) int {
	s.rw.RLock() // want `s.rw.RLock is never released`
	return s.count
}

// The ordering cycle: lockFirst takes shard.mu then mailbox.mu ...
func lockFirst(s *shard, m *mailbox) {
	s.mu.Lock()
	m.mu.Lock()
	m.items = append(m.items, s.count)
	m.mu.Unlock()
	s.mu.Unlock()
}

// ... and lockSecond takes them in the opposite order. The cycle is
// reported at the first acquisition that completes it.
func lockSecond(s *shard, m *mailbox) {
	m.mu.Lock()
	s.mu.Lock() // want `inconsistent lock order`
	s.count += len(m.items)
	s.mu.Unlock()
	m.mu.Unlock()
}

// --- negative cases ---

func lockDeferUnlock(s *shard) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func lockExplicitUnlock(s *shard) {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
}

// Conditional early exit with its own unlock (a fault-injecting Send's shape).
func earlyExit(s *shard, fail bool) int {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return -1
	}
	n := s.count
	s.mu.Unlock()
	return n
}

// Lock/unlock around each loop iteration (agent error-path shape).
func perIteration(s *shard) {
	for i := 0; i < 4; i++ {
		s.mu.Lock()
		s.count++
		s.mu.Unlock()
	}
}

// Unlock inside a deferred closure still satisfies the pairing check.
func deferredClosure(s *shard) {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	s.count++
}

// Read locks pair with RUnlock.
func readLock(s *shard) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.count
}

// Two instances of the same class in a fixed order is not a cycle.
func sameClassNested(a, b *mailbox) {
	a.mu.Lock()
	b.mu.Lock()
	a.items = append(a.items, b.items...)
	b.mu.Unlock()
	a.mu.Unlock()
}

// Consistent shard-then-mailbox order elsewhere does not conflict.
func consistentOrder(s *shard, m *mailbox) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items = m.items[:0]
}

// --- RWMutex cross-mode cases ---

// Write-lock upgrade: RLock is not upgradable, so taking the write lock
// while read-locked deadlocks against this very goroutine.
func writeUpgrade(s *shard) {
	s.rw.RLock()
	s.rw.Lock() // want `write-lock upgrade self-deadlocks`
	s.count++
	s.rw.Unlock()
	s.rw.RUnlock()
}

// The reverse: taking the read lock while write-locked blocks forever too.
func readWhileWriteLocked(s *shard) int {
	s.rw.Lock()
	s.rw.RLock() // want `RLock while write-locked`
	n := s.count
	s.rw.RUnlock()
	s.rw.Unlock()
	return n
}

// Releasing the read lock before the write lock is the correct shape.
func readThenWrite(s *shard) {
	s.rw.RLock()
	n := s.count
	s.rw.RUnlock()
	s.rw.Lock()
	s.count = n + 1
	s.rw.Unlock()
}

// Cross-mode conflicts are per instance: write-locking one RWMutex while
// holding another's read lock is fine.
func distinctInstances(a, b *shard) {
	a.rw.RLock()
	defer a.rw.RUnlock()
	b.rw.Lock()
	defer b.rw.Unlock()
	b.count = a.count
}
