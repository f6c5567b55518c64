package runtime

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
)

// ServeTransport is the one blocking serve loop: it reads frames from t until
// receive fails, handing each to handle, which only borrows it, with replies
// sent back onto t, and returns the receive error. It decodes nothing:
// handle is a Runtime's HandleFrame, or a warm standby consuming its
// replication stream (ccp-agent -standby); datapaths are served over rings,
// by ServeSet. It stops nothing when it returns: a Runtime is closed
// separately.
func ServeTransport(handle func(frame []byte, reply func(frame []byte) error) error, t ipc.Transport) error {
	reply := lockedReply(t)
	for {
		f, err := ipc.RecvFrame(t)
		if err != nil {
			return err
		}
		handle(f.B, reply) // the handler counts what it refuses
		f.Release()
	}
}

// badFrame counts a frame HandleFrame could not route, or a shard could not
// decode, and reports it on the agents' diagnostic log.
func (r *Runtime) badFrame(err error) {
	r.decodeErrors.Add(1)
	r.logf("runtime: bad frame: %v", err)
}

func (r *Runtime) logf(format string, args ...any) {
	if r.cfg.Agent.Logf != nil {
		r.cfg.Agent.Logf(format, args...)
	}
}

// Serve is the agent process's main loop (Figure 1). Each connection ln
// accepts is a datapath's rendezvous: Serve creates a ring, sends the
// datapath its memory as a descriptor with the name "<ln's path>.ring<n>",
// which only roots the datapath's doorbell name, and serves it with every
// other ring in one ServeSet. The socket carries nothing more; its EOF is the
// datapath's death, on which the ring is closed. No ring has a name on disk,
// so neither a crash nor a stop leaves one behind. Closing ln is an orderly
// shutdown: the serve loop stops at the end of its sweep, the shards answer
// what was dispatched (Drain), and then the rings and connections close.
// Serve returns nil after it and Accept's error otherwise. It does not Close
// the runtime.
func (r *Runtime) Serve(ln *net.UnixListener) error {
	base, err := filepath.Abs(ln.Addr().String())
	if err != nil {
		return err
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
		name := base + ".ring" + strconv.Itoa(n)
		ring, f, err := shmring.Create(name, shmring.Options{Bell: mux.Bell()})
		if err == nil {
			if err = mux.Adopt(ring); err == nil {
				_, _, err = conn.WriteMsgUnix([]byte(name), syscall.UnixRights(int(f.Fd())), nil)
			}
			f.Close()
			if err != nil {
				ring.Close() // the serve loop drops it if it was adopted
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
			r.logf("runtime: datapath on %s gone: %v", name, err)
			unhook()
			ring.Close()
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

// lockedReply sends each reply frame on t, one at a time: shard goroutines
// reply concurrently, and a wrapper around t may keep state per send (the
// benchmark's tracer decodes each reply). It sends the bytes it is lent and
// keeps none of them.
func lockedReply(t ipc.Transport) func(frame []byte) error {
	var mu sync.Mutex
	return func(frame []byte) error {
		mu.Lock()
		defer mu.Unlock()
		return t.Send(frame)
	}
}
