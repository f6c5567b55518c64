package harness

import (
	"fmt"
	"sync"
	"time"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/proto"
)

// SocketLinkConfig configures a SocketLink.
type SocketLinkConfig struct {
	// Dial opens a transport to the agent. Required. It is retried with
	// exponential backoff whenever the link is down.
	Dial func() (ipc.Transport, error)
	// DialTimeout bounds a single Dial attempt (default 2s). A Dial that
	// blocks past the deadline — a SYN into a black hole, a wedged
	// listener — is abandoned: its eventual transport, if any, is closed,
	// and the attempt counts as failed. Without the bound, Close could
	// hang the harness behind an unbounded dial.
	DialTimeout time.Duration
	// BackoffBase is the first retry delay (default 10ms); BackoffMax caps
	// the exponential growth (default 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// InboxDepth bounds buffered agent frames between Pump calls (default
	// 1024); overflow is dropped and counted, never blocking the reader.
	InboxDepth int
	// Logf, if set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// SocketLinkStats counts the link's activity.
type SocketLinkStats struct {
	// Connects counts successful dials (1 for an uninterrupted run).
	Connects int
	// Resyncs counts flows re-announced after a reconnect.
	Resyncs      int
	SendErrors   int
	RecvErrors   int
	DecodeErrors int
	// Dropped counts agent frames discarded on inbox overflow.
	Dropped int
	// UnknownSID counts agent messages for flows never attached.
	UnknownSID int
	// DialTimeouts counts dial attempts abandoned at DialTimeout.
	DialTimeouts int
}

// SocketLink maintains a datapath's connection to an out-of-process agent
// over a real transport, surviving agent crashes: when the link drops it
// redials with exponential backoff, and after a reconnect it replays each
// attached flow's Create (datapath.Resync) so the restarted agent re-adopts
// live flows without manual intervention. Incoming agent messages are
// buffered and routed to the owning flow's runtime on Pump, which the
// simulation loop calls between time slices so all datapath state stays on
// the simulation thread.
type SocketLink struct {
	cfg SocketLinkConfig

	mu         sync.Mutex
	tr         ipc.Transport
	dps        map[uint32]*datapath.CCP
	needResync bool
	stats      SocketLinkStats
	// everConnected gates agent-gone notifications: a link that has never
	// been up is "agent not started yet", not "agent lost" (the datapath's
	// staleness budget covers that case). goneNotified tracks which edge
	// the attached datapaths last saw.
	everConnected bool
	goneNotified  bool

	// inbox carries raw pooled frames from the reader goroutine to Pump;
	// decoding happens on the simulation thread, into dec's reusable scratch,
	// so the reader allocates nothing per message and decoded messages never
	// cross goroutines.
	inbox  chan *bufpool.Buf
	dec    proto.Decoder
	closed chan struct{}
	done   sync.WaitGroup
}

// NewSocketLink starts the connect loop. Attach flows, then call Pump from
// the simulation loop.
func NewSocketLink(cfg SocketLinkConfig) *SocketLink {
	if cfg.Dial == nil {
		panic("harness: SocketLinkConfig.Dial is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 1024
	}
	l := &SocketLink{
		cfg:    cfg,
		dps:    make(map[uint32]*datapath.CCP),
		inbox:  make(chan *bufpool.Buf, cfg.InboxDepth),
		closed: make(chan struct{}),
	}
	l.done.Add(1)
	go l.connectLoop()
	return l
}

// Stats returns a snapshot of the link counters.
//
//lint:testsupport the counters harness's socket-link tests and ccp-agent's failover test assert on
func (l *SocketLink) Stats() SocketLinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Connected reports whether a transport is currently up.
func (l *SocketLink) Connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tr != nil
}

// Attach registers a flow's runtime for message routing (keyed by its SID).
func (l *SocketLink) Attach(dp *datapath.CCP) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dps[dp.SID()] = dp
}

// ToAgent is the datapath.Config.ToAgent function for flows using this link:
// it marshals into a pooled frame and sends, reporting an error while the
// link is down (the datapath counts it and its §5 watchdog covers the gap).
func (l *SocketLink) ToAgent(m proto.Msg) error {
	f, err := proto.MarshalFrame(m)
	if err != nil {
		return err
	}
	defer f.Release() // Send borrows the frame only for the call
	l.mu.Lock()
	tr := l.tr
	l.mu.Unlock()
	if tr == nil {
		l.note(func(s *SocketLinkStats) { s.SendErrors++ })
		return fmt.Errorf("harness: agent link down")
	}
	if err := tr.Send(f.B); err != nil {
		l.note(func(s *SocketLinkStats) { s.SendErrors++ })
		return err
	}
	return nil
}

// Pump routes buffered agent messages to their flows and, after a reconnect,
// replays each attached flow's announcement. It also propagates link-state
// edges to the datapaths' liveness layer (AgentGone): a lost connection is
// reported once the loop observes it, a re-established one on the next Pump
// after reconnect. Call it from the simulation thread between time slices;
// it never blocks.
func (l *SocketLink) Pump() {
	l.mu.Lock()
	up := l.tr != nil
	var goneEdge, backEdge bool
	if l.everConnected && !up && !l.goneNotified {
		l.goneNotified = true
		goneEdge = true
	} else if up && l.goneNotified {
		l.goneNotified = false
		backEdge = true
	}
	var notify []*datapath.CCP
	if goneEdge || backEdge {
		for _, dp := range l.dps {
			notify = append(notify, dp)
		}
	}
	resync := l.needResync && up // wait out a down link; retry next Pump
	var dps []*datapath.CCP
	if resync {
		l.needResync = false
		for _, dp := range l.dps {
			dps = append(dps, dp)
		}
		l.stats.Resyncs += len(dps)
	}
	l.mu.Unlock()
	for _, dp := range notify {
		dp.AgentGone(goneEdge)
	}
	for _, dp := range dps {
		dp.Resync()
	}
	for {
		select {
		case f := <-l.inbox:
			l.pumpFrame(f)
		default:
			return
		}
	}
}

// pumpFrame decodes one wire frame into the link's scratch decoder and
// routes its message by FlowSID. Deliver consumes the message before the next
// decode, so the scratch is safe to reuse.
func (l *SocketLink) pumpFrame(f *bufpool.Buf) {
	defer f.Release()
	m, err := l.dec.Unmarshal(f.B)
	if err != nil {
		l.note(func(s *SocketLinkStats) { s.DecodeErrors++ })
		return
	}
	l.mu.Lock()
	dp := l.dps[m.FlowSID()]
	if dp == nil {
		l.stats.UnknownSID++
	}
	l.mu.Unlock()
	if dp != nil {
		dp.Deliver(m)
	}
}

// Close tears the link down and stops the connect loop.
func (l *SocketLink) Close() error {
	l.mu.Lock()
	select {
	case <-l.closed:
		l.mu.Unlock()
		return nil
	default:
	}
	close(l.closed)
	tr := l.tr
	l.tr = nil
	l.mu.Unlock()
	if tr != nil {
		tr.Close()
	}
	l.done.Wait()
	// The reader has exited; return any frames still queued to the pool.
	for {
		select {
		case f := <-l.inbox:
			f.Release()
		default:
			return nil
		}
	}
}

func (l *SocketLink) note(f func(*SocketLinkStats)) {
	l.mu.Lock()
	f(&l.stats)
	l.mu.Unlock()
}

// connectLoop dials until Close, reading the transport while it lasts and
// backing off exponentially between failed attempts.
func (l *SocketLink) connectLoop() {
	defer l.done.Done()
	backoff := l.cfg.BackoffBase
	for {
		select {
		case <-l.closed:
			return
		default:
		}
		tr, err := l.dial()
		if err != nil {
			select {
			case <-l.closed:
				return // shutdown mid-dial; don't spin out another attempt
			default:
			}
			l.logf("harness: agent dial failed (retry in %v): %v", backoff, err)
			select {
			case <-l.closed:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > l.cfg.BackoffMax {
				backoff = l.cfg.BackoffMax
			}
			continue
		}
		backoff = l.cfg.BackoffBase
		l.mu.Lock()
		select {
		case <-l.closed:
			l.mu.Unlock()
			tr.Close()
			return
		default:
		}
		l.tr = tr
		l.stats.Connects++
		l.everConnected = true
		// Flows announced on an earlier connection are unknown to whatever
		// answered this dial; replay their Creates on the next Pump.
		l.needResync = true
		l.mu.Unlock()
		l.logf("harness: agent link up")

		l.readAll(tr)

		l.mu.Lock()
		if l.tr == tr {
			l.tr = nil
		}
		l.mu.Unlock()
		tr.Close()
		l.logf("harness: agent link lost")
	}
}

// dial runs one Dial attempt bounded by DialTimeout and link shutdown. An
// abandoned attempt keeps a drainer goroutine behind: Dial has no way to be
// cancelled, so the drainer waits it out and closes whatever transport it
// eventually produces.
func (l *SocketLink) dial() (ipc.Transport, error) {
	type result struct {
		tr  ipc.Transport
		err error
	}
	ch := make(chan result, 1)
	go func() {
		tr, err := l.cfg.Dial()
		ch <- result{tr, err}
	}()
	timer := time.NewTimer(l.cfg.DialTimeout)
	defer timer.Stop()
	abandon := func() {
		go func() {
			if r := <-ch; r.tr != nil {
				r.tr.Close()
			}
		}()
	}
	select {
	case r := <-ch:
		return r.tr, r.err
	case <-l.closed:
		abandon()
		return nil, fmt.Errorf("harness: link closed during dial")
	case <-timer.C:
		abandon()
		l.note(func(s *SocketLinkStats) { s.DialTimeouts++ })
		return nil, fmt.Errorf("harness: agent dial timed out after %v", l.cfg.DialTimeout)
	}
}

// readAll drains tr into the inbox until it fails. Frames are forwarded raw
// (pooled, undecoded); a full inbox drops the frame back into the pool.
func (l *SocketLink) readAll(tr ipc.Transport) {
	for {
		f, err := ipc.RecvFrame(tr)
		if err != nil {
			select {
			case <-l.closed: // deliberate shutdown, not a failure
			default:
				l.note(func(s *SocketLinkStats) { s.RecvErrors++ })
			}
			return
		}
		select {
		case l.inbox <- f:
		default:
			f.Release()
			l.note(func(s *SocketLinkStats) { s.Dropped++ })
		}
	}
}

func (l *SocketLink) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}
