// Package ipc provides the message transports connecting the CCP agent and
// datapaths: Unix stream sockets and Unix datagram sockets (the closest
// stdlib analog of the Netlink sockets the paper's kernel datapath used);
// the shared-memory ring is the subpackage shmring. It also contains the
// echo client/server and CPU-load machinery cmd/ipcbench uses to measure
// Figure 2's round-trip latency between two processes.
package ipc

import (
	"bytes"
	"errors"

	"github.com/ccp-repro/ccp/internal/bufpool"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("ipc: transport closed")

// Transport moves whole messages between an agent and a datapath. Send and
// Recv are safe for concurrent use; message boundaries are preserved.
//
// Buffer ownership: Send borrows msg only for the duration of the call — the
// transport writes or copies it before returning, so the caller may reuse
// (or Release) its buffer immediately after Send returns. Recv returns a
// slice the caller owns outright, which costs a copy or an allocation per
// message; receive loops on a hot path should call the package-level
// RecvFrame instead, which hands out a pooled frame the caller must Release.
type Transport interface {
	// Send transmits one message.
	Send(msg []byte) error
	// Recv blocks until one message arrives and returns it. The returned
	// slice is owned by the caller.
	Recv() ([]byte, error)
	// Close releases the transport; pending and future calls fail with
	// ErrClosed (or an equivalent network error).
	Close() error
}

// FrameRecver is implemented by transports whose receive path can hand out
// pooled frames without a per-message copy. The caller owns the returned
// frame until it calls Release; the frame's bytes are invalid afterwards.
type FrameRecver interface {
	RecvFrame() (*bufpool.Buf, error)
}

// TryRecver is implemented by transports whose receive side can be polled
// without blocking. TryRecvFrame returns (nil, nil) when no message is
// waiting; a returned frame follows the FrameRecver ownership contract.
// Shared-memory rings implement this so a multiplexed serve loop can drain
// many connections from one goroutine.
type TryRecver interface {
	FrameRecver
	TryRecvFrame() (*bufpool.Buf, error)
}

// RecvSet is a group of transports whose receive readiness can be awaited
// together — one doorbell for the whole set instead of a blocked goroutine
// per connection. WaitAny blocks until at least one member may have a frame
// (or is closed); spurious returns are allowed, so callers re-poll the
// members after every wake. WaitAny returns an error (typically ErrClosed)
// only when waiting can never again produce a frame.
type RecvSet interface {
	Transports() []Transport
	WaitAny() error
}

// CopyFrame is Recv in terms of RecvFrame: the next message, copied out of
// its frame.
func CopyFrame(fr FrameRecver) ([]byte, error) {
	f, err := fr.RecvFrame()
	if err != nil {
		return nil, err
	}
	defer f.Release()
	return bytes.Clone(f.B), nil
}

// RecvFrame receives one message from t as a frame the caller must Release.
// Transports implementing FrameRecver deliver a pooled buffer with no copy;
// for any other Transport this falls back to Recv, wrapping the owned slice
// in a no-op-Release frame so callers handle both uniformly.
func RecvFrame(t Transport) (*bufpool.Buf, error) {
	if fr, ok := t.(FrameRecver); ok {
		return fr.RecvFrame()
	}
	msg, err := t.Recv()
	if err != nil {
		return nil, err
	}
	return bufpool.Wrap(msg), nil
}
