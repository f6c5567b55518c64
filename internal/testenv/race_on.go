//go:build race

package testenv

// RaceEnabled reports whether the binary was built with -race.
//
//lint:testsupport read by the allocation tests of proto, netsim, lang, shmring, datapath, core and runtime, which skip under -race
const RaceEnabled = true
