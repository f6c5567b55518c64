//go:build !linux

package shmring

import (
	"os"
	"runtime"
)

// ringDir holds ring backing files; without Linux's /dev/shm it is the
// system temporary directory.
var ringDir = os.TempDir()

// osYield on non-Linux platforms falls back to a scheduler yield; the park
// timeout backstop still guarantees cross-process progress.
func osYield() {
	runtime.Gosched()
}

// bellAddr is the address path's doorbell binds: path itself, a socket file.
func bellAddr(path string) (string, error) { return path, nil }

// unbindBell removes the socket file binding addr created.
func unbindBell(addr string) { os.Remove(addr) }
