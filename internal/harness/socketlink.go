package harness

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/proto"
)

// SocketLinkConfig configures a SocketLink.
type SocketLinkConfig struct {
	// Dial connects to the agent's socket, and must not block (a Unix socket
	// dial does not). Required; retried with backoff while the link is down.
	Dial func() (*net.UnixConn, error)
}

// The link's waits, which tests shorten (export_test.go): for the ring after
// a dial (a wedged agent fails the attempt here), and between redials,
// doubling from base to max.
const (
	rendezvousTimeout = 2 * time.Second
	backoffBase       = 10 * time.Millisecond
	backoffMax        = time.Second
)

type waits struct{ rendezvous, backoffBase, backoffMax time.Duration }

// SocketLinkStats counts the link's activity.
type SocketLinkStats struct {
	// Connects counts rings opened (1 for an uninterrupted run).
	Connects int
	// Resyncs counts flows re-announced after a reconnect.
	Resyncs      int
	DecodeErrors int
	// UnknownSID counts agent messages for flows never attached.
	UnknownSID int
}

// SocketLink maintains a datapath's connection to an out-of-process agent
// (Runtime.Serve), surviving agent crashes. The agent's Unix socket is the
// rendezvous: it hands back a shared-memory ring's memory as a descriptor,
// the ring carries every frame, and the socket's EOF is the agent's death,
// on which the link redials. After a reconnect it replays each attached
// flow's Create (datapath.Resync), so a restarted agent re-adopts live flows.
// Pump, which the simulation loop calls between time slices, drains the ring
// into the flows on the simulation thread; a full ring holds the agent back
// until it does.
type SocketLink struct {
	cfg   SocketLinkConfig
	waits waits

	mu         sync.Mutex
	conn       *net.UnixConn     // from dial to loss
	ring       *shmring.Endpoint // nil while the link is down
	dps        map[uint32]*datapath.CCP
	needResync bool
	stats      SocketLinkStats
	// everConnected gates agent-gone notifications: a link that has never
	// been up is "agent not started yet", not "agent lost" (the datapath's
	// staleness budget covers that case). goneNotified tracks which edge
	// the attached datapaths last saw.
	everConnected bool
	goneNotified  bool
	closing       bool // Close was called; closed is closed

	// dec is Pump's decode scratch (simulation thread only).
	dec    proto.Decoder
	closed chan struct{}
	done   sync.WaitGroup
}

// NewSocketLink starts the connect loop. Attach flows, then call Pump from
// the simulation loop.
func NewSocketLink(cfg SocketLinkConfig) *SocketLink {
	return newSocketLink(cfg, waits{rendezvousTimeout, backoffBase, backoffMax})
}

func newSocketLink(cfg SocketLinkConfig, w waits) *SocketLink {
	if cfg.Dial == nil {
		panic("harness: SocketLinkConfig.Dial is required")
	}
	l := &SocketLink{
		cfg:    cfg,
		waits:  w,
		dps:    make(map[uint32]*datapath.CCP),
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

// Connected reports whether a ring to the agent is currently open.
func (l *SocketLink) Connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring != nil
}

// Attach registers a flow's runtime for message routing (keyed by its SID).
func (l *SocketLink) Attach(dp *datapath.CCP) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dps[dp.SID()] = dp
}

// ToAgent is the datapath.Config.ToAgent function for flows using this link:
// it sends the message on the ring, and fails while the link is down (the
// datapath counts it and its §5 watchdog covers the gap).
func (l *SocketLink) ToAgent(m proto.Msg) error {
	f, err := proto.MarshalFrame(m)
	if err != nil {
		return err
	}
	defer f.Release() // Send borrows the frame only for the call
	l.mu.Lock()
	ring := l.ring
	l.mu.Unlock()
	if ring == nil {
		return errors.New("harness: agent link down")
	}
	return ring.Send(f.B)
}

// Pump routes what the agent has sent to its flows, replays each flow's
// announcement after a reconnect, and reports the link going down or coming
// back to the datapaths' liveness layer (AgentGone). Call it from the
// simulation thread between time slices; it never blocks.
func (l *SocketLink) Pump() {
	l.mu.Lock()
	ring, conn := l.ring, l.conn
	up := ring != nil
	// An edge is a link that went down since the datapaths last heard (once
	// it has been up at all), or one that came back.
	edge := l.everConnected && up == l.goneNotified
	if edge {
		l.goneNotified = !up
	}
	resync := l.needResync && up // wait out a down link; retry next Pump
	var dps []*datapath.CCP
	if edge || resync {
		for _, dp := range l.dps {
			dps = append(dps, dp)
		}
	}
	if resync {
		l.needResync = false
		l.stats.Resyncs += len(dps)
	}
	l.mu.Unlock()
	for _, dp := range dps {
		if edge {
			dp.AgentGone(!up)
		}
		if resync {
			dp.Resync()
		}
	}
	for up {
		f, err := ring.TryRecvFrame()
		if err != nil {
			// The agent closed the ring, or it is corrupt: either way the
			// connection is over. Closing it ends the connect loop's wait.
			conn.Close()
		}
		if f == nil {
			return
		}
		// Deliver consumes the message before the next decode reuses the
		// scratch.
		m, err := l.dec.Unmarshal(f.B)
		l.mu.Lock()
		var dp *datapath.CCP
		if err != nil {
			l.stats.DecodeErrors++
		} else if dp = l.dps[m.FlowSID()]; dp == nil {
			l.stats.UnknownSID++
		}
		l.mu.Unlock()
		if dp != nil {
			dp.Deliver(m)
		}
		f.Release()
	}
}

// Close tears the link down and stops the connect loop.
func (l *SocketLink) Close() error {
	l.mu.Lock()
	if !l.closing {
		l.closing = true
		close(l.closed)
		if l.conn != nil {
			l.conn.Close() // ends a rendezvous in progress, or the wait for EOF
		}
	}
	l.mu.Unlock()
	l.done.Wait()
	return nil
}

// connectLoop runs sessions until Close, backing off exponentially between
// failed attempts.
func (l *SocketLink) connectLoop() {
	defer l.done.Done()
	backoff := l.waits.backoffBase
	for {
		err := l.session()
		if err == nil {
			backoff = l.waits.backoffBase
		}
		select {
		case <-l.closed:
			return
		case <-time.After(backoff):
		}
		if err != nil {
			backoff = min(2*backoff, l.waits.backoffMax)
		}
	}
}

// session dials the agent, opens the ring it hands back within the
// rendezvous timeout, and keeps the link up on it until the socket's EOF: the
// agent sends nothing more on the socket, so the read returns only at its
// death, or when Close or Pump closes the socket. It returns the error of a
// failed rendezvous.
func (l *SocketLink) session() error {
	conn, err := l.cfg.Dial()
	if err != nil {
		return err
	}
	l.mu.Lock()
	if l.conn = conn; l.closing { // published first: Close cuts the rendezvous short
		conn.Close()
	}
	l.mu.Unlock()
	conn.SetReadDeadline(time.Now().Add(l.waits.rendezvous))
	ring, err := openRing(conn)
	conn.SetReadDeadline(time.Time{})
	l.mu.Lock()
	if err == nil {
		l.ring = ring
		l.stats.Connects++
		l.everConnected = true
		// Flows announced on an earlier connection are unknown to whatever
		// answered this dial; replay their Creates on the next Pump.
		l.needResync = true
	}
	l.mu.Unlock()
	if err == nil {
		conn.Read(make([]byte, 1))
		ring.Close()
	}
	l.mu.Lock()
	l.ring, l.conn = nil, nil
	l.mu.Unlock()
	conn.Close()
	return err
}

// openRing reads the agent's rendezvous message, a ring's name and its memory
// as one descriptor, and opens the ring. The received file is closed on every
// path: the mapping is all the ring needs.
func openRing(conn *net.UnixConn) (*shmring.Endpoint, error) {
	name := make([]byte, 4096)
	oob := make([]byte, syscall.CmsgSpace(4)) // room for one descriptor: the kernel closes any more
	n, oobn, _, _, err := conn.ReadMsgUnix(name, oob)
	if err != nil {
		return nil, err
	}
	cmsgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	var fds []int
	for _, c := range cmsgs {
		rights, _ := syscall.ParseUnixRights(&c) // fails only on a message that carries no descriptor
		fds = append(fds, rights...)
	}
	if err == nil && len(fds) != 1 {
		err = fmt.Errorf("harness: rendezvous carried %d descriptors, want 1", len(fds))
	}
	if err != nil {
		for _, fd := range fds {
			syscall.Close(fd)
		}
		return nil, err
	}
	f := os.NewFile(uintptr(fds[0]), string(name[:n]))
	defer f.Close()
	return shmring.Open(f, f.Name(), shmring.Options{})
}
