// Package bridge wires CCP datapath runtimes to a CCP agent inside the
// simulator, modelling the IPC channel of Figure 1 as a configurable
// latency. Every message is marshalled to and from the wire format, so the
// full protocol path is exercised even in simulation; only the transport's
// latency is modelled rather than measured.
//
// Frames cross the bridge as pooled buffers (proto.MarshalFrame) and are
// decoded into per-bridge scratch state (proto.Decoder), so a steady stream
// of reports costs one frame-pool round trip per message instead of a fresh
// byte slice plus a fresh message struct.
package bridge

import (
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
)

// Stats counts bridge traffic, for the CPU/message accounting experiments.
type Stats struct {
	ToAgentMsgs   int
	ToAgentBytes  int64
	ToDpMsgs      int
	ToDpBytes     int64
	MarshalErrors int
}

// Bridge connects one agent to any number of datapath runtimes over a
// simulated IPC link with fixed one-way latency. A negative latency or a
// stopped bridge drops messages (used to simulate agent death for the §5
// fallback experiment).
type Bridge struct {
	sim     *netsim.Sim
	agent   proto.Handler
	latency time.Duration
	stopped bool
	// gen counts Stop calls. Deliveries capture the generation they were
	// scheduled under and are discarded if a Stop intervened before they
	// fire: a killed process loses its socket buffer, so messages already
	// "in the kernel" at crash time must vanish with it.
	gen   uint64
	stats Stats

	// dec is the bridge's decode scratch. The simulator is single-threaded
	// and every delivery consumes its decoded message before returning, so
	// one decoder serves both directions.
	dec proto.Decoder
}

// New creates a bridge to agent with the given one-way IPC latency.
func New(sim *netsim.Sim, agent proto.Handler, latency time.Duration) *Bridge {
	return &Bridge{sim: sim, agent: agent, latency: latency}
}

// Stats returns a snapshot of the bridge counters.
func (b *Bridge) Stats() Stats { return b.stats }

// SetLatency changes the one-way IPC latency for subsequent messages.
func (b *Bridge) SetLatency(d time.Duration) { b.latency = d }

// Stop makes the bridge drop all traffic in both directions, simulating an
// agent crash: future sends are dropped, and messages already scheduled for
// delivery are discarded when they fire. Resume with Start.
func (b *Bridge) Stop() {
	b.stopped = true
	b.gen++
}

// Start re-enables a stopped bridge (the agent process restarted).
func (b *Bridge) Start() { b.stopped = false }

// Stopped reports whether the bridge is dropping traffic.
func (b *Bridge) Stopped() bool { return b.stopped }

// DatapathSender returns the ToAgent function for a datapath runtime whose
// agent→datapath deliveries go to deliver (normally (*datapath.CCP).Deliver).
func (b *Bridge) DatapathSender(deliver func(proto.Msg)) func(proto.Msg) error {
	reply := func(m proto.Msg) error {
		// Marshal on the agent side, unmarshal on the datapath side.
		f, err := proto.MarshalFrame(m)
		if err != nil {
			b.stats.MarshalErrors++
			return err
		}
		if b.stopped {
			f.Release()
			return nil // silently lost, like a dead process's socket buffer
		}
		b.stats.ToDpMsgs++
		b.stats.ToDpBytes += int64(len(f.B))
		gen := b.gen
		b.sim.Schedule(b.latency, func() {
			defer f.Release() // the frame dies with the delivery either way
			if b.stopped || b.gen != gen {
				return // crashed while in flight
			}
			msg, err := b.dec.Unmarshal(f.B)
			if err != nil {
				b.stats.MarshalErrors++
				return
			}
			deliver(msg)
		})
		return nil
	}
	return func(m proto.Msg) error {
		f, err := proto.MarshalFrame(m)
		if err != nil {
			b.stats.MarshalErrors++
			return err
		}
		if b.stopped {
			f.Release()
			return nil
		}
		b.stats.ToAgentMsgs++
		b.stats.ToAgentBytes += int64(len(f.B))
		gen := b.gen
		b.sim.Schedule(b.latency, func() {
			defer f.Release()
			if b.stopped || b.gen != gen {
				return // crashed while in flight
			}
			msg, err := b.dec.Unmarshal(f.B)
			if err != nil {
				b.stats.MarshalErrors++
				return
			}
			b.agent.HandleMessage(msg, reply)
		})
		return nil
	}
}

// Connect builds a datapath runtime for one flow, wired through the bridge.
// It is the common setup path for simulation experiments.
func (b *Bridge) Connect(cfg datapath.Config) *datapath.CCP {
	cfg.Clock = b.sim
	var dp *datapath.CCP
	cfg.ToAgent = b.DatapathSender(func(m proto.Msg) { dp.Deliver(m) })
	dp = datapath.New(cfg)
	return dp
}
