package shmring

import (
	"fmt"
	"slices"
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
// Members may be adopted while a Mux is served (Version, Leave). The
// serve loop of a Mux made by NewMux returns once every member has left; one
// made by NewOpenMux waits for members, until Close. A Mux's bell must have
// exactly one waiter; run one serve loop (one Runtime.ServeSet) per Mux.
type Mux struct {
	bell    *Bell
	version atomic.Uint64 // moves on every Adopt and on Close

	mu   sync.Mutex
	eps  []*Endpoint
	open bool
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

// NewOpenMux is NewMux for a set whose serve loop waits for members.
func NewOpenMux(bellPath string) (*Mux, error) {
	m, err := NewMux(bellPath)
	if err == nil {
		m.open = true
	}
	return m, err
}

// Bell returns the shared doorbell, for Options.Bell.
func (m *Mux) Bell() *Bell { return m.bell }

// Adopt adds an endpoint to the set, waking an open Mux's serve loop to take
// it in. The endpoint must have been opened with this Mux's bell — otherwise
// its producer would ring a doorbell nobody in this loop is listening to.
func (m *Mux) Adopt(e *Endpoint) error {
	if e.bell != m.bell {
		return fmt.Errorf("shmring: endpoint %s was not opened with this mux's bell", e.path)
	}
	m.mu.Lock()
	m.eps = append(m.eps, e)
	if m.version.Add(1); m.open {
		m.bell.ring()
	}
	m.mu.Unlock()
	return nil
}

// Leave removes t, whose receive failed, from the set; its owner closes it.
func (m *Mux) Leave(t ipc.Transport) {
	m.mu.Lock()
	m.eps = slices.DeleteFunc(m.eps, func(e *Endpoint) bool { return ipc.Transport(e) == t })
	m.mu.Unlock()
}

// Version moves whenever a member joins or the set is closed.
func (m *Mux) Version() uint64 { return m.version.Load() }

// Transports returns the members as ipc.Transports.
func (m *Mux) Transports() []ipc.Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := make([]ipc.Transport, len(m.eps))
	for i, e := range m.eps {
		ts[i] = e
	}
	return ts
}

// WaitAny blocks until at least one member may have a frame (or is closed),
// with the same arm/re-check/park protocol a single endpoint uses — so no
// publication is lost between the emptiness check and the park. Spurious
// returns are allowed and expected; callers re-poll. With no live member it
// returns ipc.ErrClosed, or, if the set is open, parks until one joins.
func (m *Mux) WaitAny() error {
	m.mu.Lock()
	eps, open := m.eps, m.open
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
		if !open {
			return ipc.ErrClosed
		}
		m.bell.wait(parkTimeout) // Adopt rings, Close closes the bell
		return nil
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

// Close ends the set and releases the doorbell: the serve loop returns at the
// end of its sweep. The endpoints stay open for their owner.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.eps, m.open = nil, false
	m.mu.Unlock()
	m.version.Add(1)
	return m.bell.Close()
}
