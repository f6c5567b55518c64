//go:build !race

// Package testenv exposes build-time test environment facts, currently just
// whether the race detector is compiled in (its instrumentation allocates, so
// allocation-count tests skip under -race).
package testenv

// RaceEnabled reports whether the binary was built with -race.
//
//lint:testsupport read by the allocation tests of proto, netsim, lang, shmring, datapath, core and runtime, which skip under -race
const RaceEnabled = false
