package runtime

import (
	"fmt"
	stdruntime "runtime"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/proto"
)

// ServeSet services every connection in set from the calling goroutine: it
// round-robins TryRecvFrame over the members (a bounded drain quota per
// member per sweep, so one firehose connection cannot starve the rest) and
// parks on the set's shared doorbell only after a full sweep finds nothing.
// This is the agent-side answer to goroutine-per-connection: with
// shared-memory rings, 100k datapath connections are serviced by a handful
// of serve loops, each a single goroutine polling readiness instead of
// 100k blocked readers.
//
// Every member must implement ipc.TryRecver. Each frame goes through the same
// frameStep as ServeTransport's (an undecodable one is counted and skipped);
// a member whose receive fails (peer closed, ring corrupted) is dropped from
// the rotation. ServeSet returns nil once every member is dropped, or
// WaitAny's error if the set itself fails first. Replies are serialized
// per-connection; shard goroutines may invoke them concurrently with the
// loop.
//
// Run exactly one ServeSet per set: the doorbell has one waiter by contract
// (see shmring.Mux).
func (r *Runtime) ServeSet(set ipc.RecvSet) error {
	type conn struct {
		t      ipc.TryRecver
		reply  func(proto.Msg) error
		closed bool
	}
	ts := set.Transports()
	conns := make([]*conn, len(ts))
	for i, t := range ts {
		tr, ok := t.(ipc.TryRecver)
		if !ok {
			return fmt.Errorf("runtime: ServeSet member %d (%T) is not pollable", i, t)
		}
		conns[i] = &conn{t: tr, reply: lockedReply(t)}
	}
	// drainQuota bounds how many frames one connection may deliver per sweep.
	// Big enough to amortize the sweep over a batch, small enough that a
	// saturated ring cannot monopolize the loop.
	const drainQuota = 64
	step := newFrameStep(r)
	live := len(conns)
	idleSweeps := 0
	for live > 0 {
		progress := false
		for _, c := range conns {
			if c.closed {
				continue
			}
			for q := 0; q < drainQuota; q++ {
				f, err := c.t.TryRecvFrame()
				if err != nil {
					c.closed = true
					live--
					break
				}
				if f == nil {
					break
				}
				progress = true
				step.handle(f, c.reply)
			}
		}
		if progress {
			idleSweeps = 0
			continue
		}
		// A few yielding sweeps before parking: handoffs in flight (a
		// producer between publish and ding) land without a syscall.
		idleSweeps++
		if idleSweeps < 8 {
			stdruntime.Gosched()
			continue
		}
		idleSweeps = 0
		if err := set.WaitAny(); err != nil {
			if live > 0 {
				return err
			}
		}
	}
	return nil
}
