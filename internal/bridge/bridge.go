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

	"github.com/ccp-repro/ccp/internal/bufpool"
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

// Stop makes the bridge drop all traffic in both directions, simulating an
// agent crash: future sends are dropped, and messages already scheduled for
// delivery are discarded when they fire. Resume with Start.
func (b *Bridge) Stop() {
	b.stopped = true
	b.gen++
}

// Start re-enables a stopped bridge (the agent process restarted).
func (b *Bridge) Start() { b.stopped = false }

// Tap stands on one direction of one connection's wire, between the encoder
// and the decoder, so that whatever it does to a message it does to the bytes
// the bridge already produced — a message is encoded once and decoded once
// with a tap or without. To the agent the tap comes before the latency, to
// the datapath after it.
type Tap struct {
	// Carry is handed each encoded frame, valid for the call only, and calls
	// next for every copy that is to go on — none, one or several, during the
	// call or later — with bytes that next then owns.
	Carry func(frame []byte, next func([]byte))
	// Killed is told of each carried frame the receiving decoder refused.
	// That is the tap's doing, not the codec's: it is not a MarshalError.
	Killed func()
}

// DatapathSender returns the ToAgent function for a datapath runtime whose
// agent→datapath deliveries go to deliver (normally (*datapath.CCP).Deliver).
func (b *Bridge) DatapathSender(deliver func(proto.Msg)) func(proto.Msg) error {
	return b.TappedSender(deliver, nil, nil)
}

// TappedSender is DatapathSender with a tap on either direction's wire (nil
// for none: the pooled frame then crosses as it is, copied nowhere).
func (b *Bridge) TappedSender(deliver func(proto.Msg), toAgent, toDatapath *Tap) func(proto.Msg) error {
	arriveDp := func(frame []byte) { b.decode(frame, toDatapath, deliver) }
	if toDatapath != nil {
		decodeDp := arriveDp
		arriveDp = func(frame []byte) { toDatapath.Carry(frame, decodeDp) }
	}
	reply := func(m proto.Msg) error {
		// Marshal on the agent side, unmarshal on the datapath side.
		f, err := proto.MarshalFrame(m)
		if err != nil {
			b.stats.MarshalErrors++
			return err
		}
		b.cross(f, &b.stats.ToDpMsgs, &b.stats.ToDpBytes, arriveDp)
		return nil
	}
	handle := func(m proto.Msg) { b.agent.HandleMessage(m, reply) }
	arriveAgent := func(frame []byte) { b.decode(frame, toAgent, handle) }
	crossToAgent := func(raw []byte) {
		b.cross(bufpool.Wrap(raw), &b.stats.ToAgentMsgs, &b.stats.ToAgentBytes, arriveAgent)
	}
	return func(m proto.Msg) error {
		f, err := proto.MarshalFrame(m)
		if err != nil {
			b.stats.MarshalErrors++
			return err
		}
		if toAgent == nil {
			b.cross(f, &b.stats.ToAgentMsgs, &b.stats.ToAgentBytes, arriveAgent)
			return nil
		}
		toAgent.Carry(f.B, crossToAgent)
		f.Release()
		return nil
	}
}

// cross counts one frame into its direction and carries it over the latency:
// arrive runs on the far side unless the bridge stopped in between. The frame
// is cross's to release, and dies with the delivery either way.
func (b *Bridge) cross(f *bufpool.Buf, msgs *int, bytes *int64, arrive func(frame []byte)) {
	if b.stopped {
		f.Release()
		return // silently lost, like a dead process's socket buffer
	}
	*msgs++
	*bytes += int64(len(f.B))
	gen := b.gen
	b.sim.Schedule(b.latency, func() {
		defer f.Release()
		if b.stopped || b.gen != gen {
			return // crashed while in flight
		}
		arrive(f.B)
	})
}

// decode is the receiving end of either direction: the frame's message goes
// to the receiver, or the frame is counted as undecodable against whoever
// could have made it so.
func (b *Bridge) decode(frame []byte, tap *Tap, to func(proto.Msg)) {
	msg, err := b.dec.Unmarshal(frame)
	switch {
	case err == nil:
		to(msg)
	case tap != nil:
		tap.Killed()
	default:
		b.stats.MarshalErrors++
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
