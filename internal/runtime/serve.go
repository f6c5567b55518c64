package runtime

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
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
// and returns the receive error. A warm standby consumes its replication
// stream with it (h is a supervise.Standby); datapaths are served over rings,
// by ServeSet. It stops nothing when it returns: a Runtime is closed
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

// Serve is the agent process's main loop (Figure 1). Each connection ln
// accepts is a datapath's rendezvous: Serve creates a ring beside ln's path,
// sends its path back as one stream frame, and serves it with every other
// ring in one ServeSet. The socket carries nothing more; its EOF is the
// datapath's death, on which the ring is closed and its name removed. Ring
// names a crashed agent left beside the path are removed first. Closing ln is
// an orderly shutdown: the serve loop stops at the end of its sweep, the
// shards answer what was dispatched (Drain), and then the rings and
// connections close. Serve returns nil after it and Accept's error otherwise.
// It does not Close the runtime.
func (r *Runtime) Serve(ln *net.UnixListener) error {
	base, err := filepath.Abs(ln.Addr().String())
	if err != nil {
		return err
	}
	stale, _ := filepath.Glob(base + ".ring*")
	for _, path := range stale {
		shmring.Remove(path) // leaves alone anything that is not a ring name
	}
	mux, err := shmring.NewOpenMux(base + ".bell")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- r.ServeSet(mux) }()
	stopping, stop := context.WithCancel(context.Background())
	var watchers sync.WaitGroup
	var acceptErr error
	for n := 0; ; n++ {
		var conn *net.UnixConn
		if conn, acceptErr = ln.AcceptUnix(); acceptErr != nil {
			break
		}
		path := base + ".ring" + strconv.Itoa(n)
		ring, err := shmring.Create(path, shmring.Options{Bell: mux.Bell()})
		if err == nil {
			if err = mux.Adopt(ring); err == nil {
				err = ipc.NewStream(conn).Send([]byte(path))
			}
			if err != nil {
				ring.Close() // the serve loop drops it if it was adopted
				os.Remove(path)
			}
		}
		if err != nil {
			r.logf("runtime: datapath refused: %v", err)
			conn.Close()
			continue
		}
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			unhook := context.AfterFunc(stopping, func() { conn.Close() })
			_, err := conn.Read(make([]byte, 1)) // at EOF, or the shutdown's Close
			r.logf("runtime: datapath on %s gone: %v", path, err)
			unhook()
			ring.Close()
			os.Remove(path)
			conn.Close()
		}()
	}
	mux.Close()
	serveErr := <-served
	r.Drain()
	stop()
	watchers.Wait()
	if !errors.Is(acceptErr, net.ErrClosed) {
		return acceptErr
	}
	return serveErr
}

// lockedReply sends each reply on t as one frame, one at a time: shard
// goroutines reply concurrently, and a wrapper around t may keep state per
// send (the benchmark's tracer decodes each reply). It marshals before
// returning, so it keeps nothing of the message it was lent.
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
