package shmring

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ccp-repro/ccp/internal/ipc"
)

// Mux multiplexes many ring endpoints onto one doorbell so a single serve
// goroutine can park for all of them: every adopted endpoint registers the
// shared bell as its wakeup target, and WaitAny arms every ring's park flag,
// re-checks readiness, and blocks on the one socket. This is the agent-side
// scaling move — readiness polling instead of a blocked goroutine per
// datapath connection.
//
// A Mux's bell must have exactly one waiter; run one serve loop (one
// Runtime.ServeSet) per Mux. Mux implements ipc.RecvSet.
type Mux struct {
	bell *Bell

	mu  sync.Mutex
	eps []*Endpoint
}

// NewMux binds a shared doorbell named by bellPath (see NewBell). Endpoints
// to be served by this Mux must be created with Options.Bell = mux.Bell()
// and then Adopt-ed.
func NewMux(bellPath string) (*Mux, error) {
	bell, err := NewBell(bellPath)
	if err != nil {
		return nil, err
	}
	return &Mux{bell: bell}, nil
}

// Bell returns the shared doorbell, for Options.Bell.
func (m *Mux) Bell() *Bell { return m.bell }

// Adopt adds an endpoint to the set. The endpoint must have been opened
// with this Mux's bell — otherwise its producer would ring a doorbell
// nobody in this loop is listening to.
func (m *Mux) Adopt(e *Endpoint) error {
	if e.bell != m.bell {
		return fmt.Errorf("shmring: endpoint %s was not opened with this mux's bell", e.path)
	}
	m.mu.Lock()
	m.eps = append(m.eps, e)
	m.mu.Unlock()
	return nil
}

// Transports returns the adopted endpoints as ipc.Transports.
func (m *Mux) Transports() []ipc.Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := make([]ipc.Transport, len(m.eps))
	for i, e := range m.eps {
		ts[i] = e
	}
	return ts
}

// WaitAny blocks until at least one adopted endpoint may have a frame (or
// is closed), with the same arm/re-check/park protocol a single endpoint
// uses — so no publication is lost between the emptiness check and the
// park. Spurious returns are allowed and expected; callers re-poll. It
// returns ipc.ErrClosed only when every endpoint is closed.
func (m *Mux) WaitAny() error {
	m.mu.Lock()
	eps := m.eps
	m.mu.Unlock()
	live := 0
	for _, e := range eps {
		if e.closed.Load() {
			continue
		}
		live++
		atomic.StoreUint32(e.recvR.parked, 1)
	}
	if live == 0 {
		return ipc.ErrClosed
	}
	ready := false
	for _, e := range eps {
		if e.closed.Load() {
			continue
		}
		if e.recvR.avail() != 0 || e.pending.Load() != 0 || atomic.LoadUint32(e.peerClosed) != 0 {
			ready = true
			break
		}
	}
	if !ready {
		m.bell.wait(parkTimeout)
	} else {
		// We are returning without a blocking read; swallow any dings
		// producers sent while our flags were armed so the next park does
		// not wake instantly on stale signals.
		m.bell.drain()
	}
	for _, e := range eps {
		atomic.StoreUint32(e.recvR.parked, 0)
	}
	return nil
}

// Close releases the shared doorbell. It does not close the endpoints;
// their owner does.
func (m *Mux) Close() error { return m.bell.Close() }
