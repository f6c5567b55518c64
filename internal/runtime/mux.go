package runtime

import (
	"fmt"
	stdruntime "runtime"

	"github.com/ccp-repro/ccp/internal/ipc"
)

// growingSet is a RecvSet whose members join while it is served, as a
// shmring.Mux's do (see ServeSet).
type growingSet interface {
	ipc.RecvSet
	Version() uint64
	Leave(t ipc.Transport)
}

// ServeSet services every connection in set from the calling goroutine (one
// goroutine polling readiness, not a blocked reader per datapath): it
// round-robins TryRecvFrame over the members, at most drainQuota frames each
// per sweep, and parks in WaitAny only after a full sweep finds nothing.
// Every member must implement ipc.TryRecver. The loop does not decode: it
// hands each frame to HandleFrame, and it starts the shard goroutines that
// drain the mailboxes (they run until Close), so it never runs an agent
// itself. A member whose receive fails (peer
// closed, ring corrupted) is dropped. Replies to one member are serialized;
// shard goroutines may send them concurrently with the loop. The members of
// a growingSet are read again whenever its Version moves, each dropped one is
// handed back with Leave, and with none left the loop waits in WaitAny.
// ServeSet returns nil once every member is dropped (and WaitAny says none
// can join), or WaitAny's error if the set itself fails first. Run exactly
// one ServeSet per set: the doorbell has one waiter (see shmring.Mux).
func (r *Runtime) ServeSet(set ipc.RecvSet) error {
	type conn struct {
		tr    ipc.Transport
		t     ipc.TryRecver
		reply func(frame []byte) error
	}
	var conns []conn
	// A member keeps its reply across re-reads: one lock per connection.
	replies := make(map[ipc.Transport]func(frame []byte) error)
	members := func() error {
		conns = conns[:0]
		for i, t := range set.Transports() {
			tr, ok := t.(ipc.TryRecver)
			if !ok {
				return fmt.Errorf("runtime: ServeSet member %d (%T) is not pollable", i, t)
			}
			if replies[t] == nil {
				replies[t] = lockedReply(t)
			}
			conns = append(conns, conn{t, tr, replies[t]})
		}
		return nil
	}
	grow, _ := set.(growingSet)
	var version uint64 // a growing set is read again on the first sweep
	if err := members(); err != nil {
		return err
	}
	// drainQuota bounds how many frames one connection may deliver per sweep.
	// Big enough to amortize the sweep over a batch, small enough that a
	// saturated ring cannot monopolize the loop.
	const drainQuota = 64
	idleSweeps := 0
	r.serve()
	for {
		if grow != nil && grow.Version() != version {
			version = grow.Version()
			if err := members(); err != nil {
				return err
			}
		}
		if len(conns) == 0 {
			if grow == nil || set.WaitAny() != nil {
				return nil
			}
			continue
		}
		progress := false
		for i := 0; i < len(conns); i++ {
			c := conns[i]
			for q := 0; q < drainQuota; q++ {
				f, err := c.t.TryRecvFrame()
				if err != nil {
					delete(replies, c.tr)
					conns = append(conns[:i], conns[i+1:]...)
					i--
					if grow != nil {
						grow.Leave(c.tr)
					}
					break
				}
				if f == nil {
					break
				}
				progress = true
				r.HandleFrame(f.B, c.reply) // what it refuses, it counts
				f.Release()
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
		if err := set.WaitAny(); err != nil && len(conns) > 0 {
			return err
		}
	}
}
