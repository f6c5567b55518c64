package runtime

import (
	"errors"
	"net"
	"sync"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/proto"
)

// badFramer is the optional half of a serve loop's handler: one that has it
// is told of each frame the loop received and could not decode. A Runtime
// counts them (Stats.DecodeErrors); a warm standby counts them as unexpected.
type badFramer interface {
	BadFrame(err error)
}

// frameStep is what a serve loop does with each frame it receives, written
// once for the blocking loop (ServeTransport) and the polled one (ServeSet):
// decode into scratch the loop keeps, hand the message to the handler, and
// reclaim frame and scratch as soon as the handler returns — it has copied
// whatever it queued (proto.Handler). A frame that does not decode is
// counted, never dispatched.
type frameStep struct {
	h   proto.Handler
	bad badFramer // nil when h does not count bad frames
	dec proto.Decoder
}

func newFrameStep(h proto.Handler) frameStep {
	bad, _ := h.(badFramer)
	return frameStep{h: h, bad: bad}
}

// handle consumes f: the caller's ownership of the frame ends here.
func (s *frameStep) handle(f *bufpool.Buf, reply func(proto.Msg) error) {
	if m, err := s.dec.Unmarshal(f.B); err == nil {
		s.h.HandleMessage(m, reply)
	} else if s.bad != nil {
		s.bad.BadFrame(err)
	}
	f.Release()
}

// ServeTransport is the one blocking serve loop: it reads frames from t until
// receive fails, putting each through h with replies marshalled back onto t,
// and returns the receive error. An agent serves a datapath connection with
// it (h is a Runtime — Serve does this for every connection a listener
// accepts) and a warm standby consumes its replication stream with it (h is
// a supervise.Standby). It stops nothing when it returns: a Runtime is closed
// separately.
func ServeTransport(h proto.Handler, t ipc.Transport) error {
	reply := lockedReply(t)
	step := newFrameStep(h)
	for {
		f, err := ipc.RecvFrame(t)
		if err != nil {
			return err
		}
		step.handle(f, reply)
	}
}

// BadFrame counts a frame a serve loop could not decode and reports it on the
// agents' diagnostic log.
func (r *Runtime) BadFrame(err error) {
	r.decodeErrors.Add(1)
	r.logf("runtime: bad frame: %v", err)
}

func (r *Runtime) logf(format string, args ...any) {
	if r.cfg.Agent.Logf != nil {
		r.cfg.Agent.Logf(format, args...)
	}
}

// Serve is the agent process's main loop (Figure 1): it accepts connections
// on the Unix stream socket ln, each a datapath, and serves every one with
// ServeTransport on its own goroutine until ln is closed. Closing ln is the
// shutdown signal, and the shutdown is orderly: each connection stops reading,
// finishes the frame it has in hand, the shards answer everything already
// dispatched (Drain), and only then are the connections closed. Serve returns
// nil after such a shutdown and Accept's error otherwise. It does not Close
// the runtime.
func (r *Runtime) Serve(ln *net.UnixListener) error {
	var (
		mu       sync.Mutex
		open     = make(map[*net.UnixConn]struct{})
		stopping bool
		loops    sync.WaitGroup
	)
	var acceptErr error
	for {
		conn, err := ln.AcceptUnix()
		if err != nil {
			acceptErr = err
			break
		}
		mu.Lock()
		open[conn] = struct{}{}
		mu.Unlock()
		r.logf("runtime: datapath connected")
		loops.Add(1)
		go func() {
			defer loops.Done()
			err := ServeTransport(r, ipc.NewStream(conn))
			r.logf("runtime: datapath disconnected: %v", err)
			mu.Lock()
			if !stopping { // else Serve closes it, after the drain
				delete(open, conn)
				conn.Close()
			}
			mu.Unlock()
		}()
	}
	mu.Lock()
	stopping = true
	for conn := range open {
		// The read side only: decisions for the frames already taken in
		// still have to go out.
		conn.CloseRead()
	}
	mu.Unlock()
	loops.Wait()
	r.Drain()
	for conn := range open {
		conn.Close()
	}
	if errors.Is(acceptErr, net.ErrClosed) {
		return nil
	}
	return acceptErr
}

// lockedReply serializes replies onto one transport: the wire is one stream
// and shard goroutines reply concurrently (Transport.Send is already safe;
// the mutex keeps reply bursts from interleaving mid-shutdown). It marshals
// before returning, so it keeps nothing of the message it was lent.
func lockedReply(t ipc.Transport) func(proto.Msg) error {
	var mu sync.Mutex
	return func(m proto.Msg) error {
		f, err := proto.MarshalFrame(m)
		if err != nil {
			return err
		}
		mu.Lock()
		err = t.Send(f.B)
		mu.Unlock()
		f.Release()
		return err
	}
}
