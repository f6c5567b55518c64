//go:build linux

package shmring

import (
	"path/filepath"
	"syscall"
)

// ringDir holds ring backing files. It is tmpfs, so a ring's pages never
// need a disk block on first write and are never written back.
const ringDir = "/dev/shm"

// osYield yields the processor to any runnable thread, including one in
// another process. runtime.Gosched only rotates goroutines within this
// process; on a single-CPU host a cross-process ring peer never runs unless
// the spinner periodically gives the kernel a chance to schedule it.
func osYield() {
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

// bellAddr is the address path's doorbell binds: the absolute form of path
// in the abstract socket namespace ("@" is Go's spelling of the leading NUL).
// Binding there creates no inode, a crashed owner leaves no name behind to
// refuse the next bind, and a peer reaches it whatever its working
// directory. The name holds at most 107 bytes.
func bellAddr(path string) (string, error) {
	abs, err := filepath.Abs(path)
	return "@" + abs, err
}

// unbindBell removes what binding addr left in the filesystem: nothing, for
// an abstract name.
func unbindBell(string) {}
