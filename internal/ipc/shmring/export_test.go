package shmring

import "time"

// PairSized is Pair with rings of size data bytes per direction: tests of
// wrap-around and backpressure want a ring a few records deep, not 256 KiB.
func PairSized(path string, size int, aOpts, bOpts Options) (a, b *Endpoint, err error) {
	return pair(path, size, aOpts, bOpts)
}

// SetWait gives e's receiver a spin budget of spins yields and parks of at
// most park. Call it before e is in use.
func (e *Endpoint) SetWait(spins int, park time.Duration) {
	e.spinYields, e.parkTimeout = spins, park
}
