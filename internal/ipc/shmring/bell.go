package shmring

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// ding is the one-byte datagram a producer sends to wake a parked consumer.
// Its content is meaningless; the readable event is the signal.
var ding = []byte{1}

type doorbellConn = *net.UnixConn

// Bell is a wakeup doorbell: a bound Unix datagram socket a consumer parks
// on and producers ding. Datagram sockets give exactly the futex-like
// semantics the ring needs with nothing outside the stdlib: waiting is one
// blocking read, waking is one sendto from any process that knows the
// address, and a burst of dings coalesces into (at least) one wakeup — a
// slow receiver just finds the socket buffer non-empty and returns
// immediately.
//
// A Bell may back a single endpoint or be shared by many (see Mux), but it
// must have exactly one waiter: competing readers would steal each other's
// wakeups.
type Bell struct {
	conn   *net.UnixConn
	addr   string
	closed atomic.Bool
}

// NewBell binds a doorbell named by path: on Linux in the abstract socket
// namespace, so no file is made at path; elsewhere a socket file at path.
func NewBell(path string) (*Bell, error) {
	addr, err := bellAddr(path)
	if err != nil {
		return nil, fmt.Errorf("shmring: doorbell addr: %w", err)
	}
	conn, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: addr, Net: "unixgram"})
	if err != nil {
		return nil, fmt.Errorf("shmring: doorbell bind: %w", err)
	}
	return &Bell{conn: conn, addr: addr}, nil
}

// Addr returns the socket address producers ding.
func (b *Bell) Addr() string { return b.addr }

// wait blocks until a ding arrives, d elapses, or the bell is closed.
// Callers treat every return as spurious and re-check ring state.
func (b *Bell) wait(d time.Duration) {
	if b.closed.Load() {
		return
	}
	var buf [16]byte
	b.conn.SetReadDeadline(time.Now().Add(d))
	b.conn.Read(buf[:])
}

// ring wakes the bell's own waiter. A full socket buffer already holds a
// wakeup, so a ding that does not fit is dropped.
func (b *Bell) ring() {
	b.conn.SetWriteDeadline(time.Now().Add(time.Millisecond))
	b.conn.WriteToUnix(ding, &net.UnixAddr{Name: b.addr, Net: "unixgram"})
}

// drain empties any queued dings without blocking, so a waiter that already
// found work does not wake instantly on the next park for stale signals.
func (b *Bell) drain() {
	if b.closed.Load() {
		return
	}
	var buf [16]byte
	b.conn.SetReadDeadline(time.Now())
	for {
		if _, err := b.conn.Read(buf[:]); err != nil {
			return
		}
	}
}

// Close unblocks the waiter and frees the address.
func (b *Bell) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	err := b.conn.Close()
	unbindBell(b.addr)
	return err
}

func dialBell(addr string) (doorbellConn, error) {
	return net.DialUnix("unixgram", nil, &net.UnixAddr{Name: addr, Net: "unixgram"})
}
