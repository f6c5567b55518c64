// Package bridge wires CCP datapath runtimes to a CCP agent inside the
// simulator, modelling the IPC channel of Figure 1 as a configurable
// latency. Every message is marshalled to the wire format, so the full
// protocol path is exercised even in simulation; only the transport's
// latency is modelled rather than measured.
//
// Frames cross the bridge as pooled buffers: a datapath's message is
// marshalled into one here (proto.MarshalFrame), and an agent's decision, which
// the agent marshals itself and only lends, is copied into one. A frame bound
// for the agent reaches it undecoded, as a serve loop hands it on
// (runtime.Runtime.HandleFrame, or the fault injector in front of it); only
// frames bound for the datapath are decoded here, into per-bridge scratch
// state (proto.Decoder).
package bridge

import (
	"time"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
)

// Stats counts bridge traffic for fig5, ablation-batching and ablation-foldvec,
// none of which runs a fault plan. Under one, ToAgentMsgs and ToAgentBytes
// count every frame on the wire to the agent, decoder-killed ones included.
// MarshalErrors counts a datapath message that did not marshal (the agent
// counts its own decisions that do not, as core.AgentStats.Errors) and an
// untapped frame either end refused: the agent side is told by the error its
// handler returns.
type Stats struct {
	ToAgentMsgs   int
	ToAgentBytes  int64
	ToDpMsgs      int
	ToDpBytes     int64
	MarshalErrors int
}

// Bridge connects one agent to any number of datapath runtimes over a
// simulated IPC link with fixed one-way latency (not negative: the
// simulator panics on a negative delay). It loses nothing itself; an agent
// that dies, and a channel that drops, are the fault layers' doing
// (internal/faults), one behind the bridge and one on its wire.
type Bridge struct {
	sim     *netsim.Sim
	agent   func(frame []byte, reply func(frame []byte) error) error
	latency time.Duration
	stats   Stats

	// dec is the bridge's decode scratch for frames bound for a datapath. The
	// simulator is single-threaded and every delivery consumes its decoded
	// message before returning.
	dec proto.Decoder
}

// New creates a bridge with the given one-way IPC latency to agent, which is
// handed each frame bound for it (it only borrows the frame) and returns the
// error of one it refused undelivered (runtime.Runtime.HandleFrame).
func New(sim *netsim.Sim, agent func(frame []byte, reply func(frame []byte) error) error, latency time.Duration) *Bridge {
	return &Bridge{sim: sim, agent: agent, latency: latency}
}

// Stats returns a snapshot of the bridge counters.
func (b *Bridge) Stats() Stats { return b.stats }

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
	// Killed is told of each carried frame the receiving decoder refused (on
	// the agent side, the frame the agent handler returned an error for).
	// That is the tap's doing, not the codec's: it is not a MarshalError.
	Killed func()
}

// TappedSender returns the ToAgent function for a datapath runtime whose
// agent→datapath deliveries go to deliver (normally (*datapath.CCP).Deliver),
// with a tap on either direction's wire (nil for none: the pooled frame then
// crosses as it is, copied nowhere).
func (b *Bridge) TappedSender(deliver func(proto.Msg), toAgent, toDatapath *Tap) func(proto.Msg) error {
	arriveDp := func(frame []byte) {
		msg, err := b.dec.Unmarshal(frame)
		if err != nil {
			b.refused(toDatapath)
			return
		}
		deliver(msg)
	}
	if toDatapath != nil {
		decodeDp := arriveDp
		arriveDp = func(frame []byte) { toDatapath.Carry(frame, decodeDp) }
	}
	reply := func(frame []byte) error {
		// The agent lends its frame for the call: the copy crosses.
		f := bufpool.Get(len(frame))
		f.B = append(f.B, frame...)
		b.cross(f, &b.stats.ToDpMsgs, &b.stats.ToDpBytes, arriveDp)
		return nil
	}
	arriveAgent := func(frame []byte) {
		if b.agent(frame, reply) != nil {
			b.refused(toAgent)
		}
	}
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

// cross counts one frame into its direction and carries it over the latency
// to arrive on the far side. The frame is cross's to release, and dies with
// the delivery.
func (b *Bridge) cross(f *bufpool.Buf, msgs *int, bytes *int64, arrive func(frame []byte)) {
	*msgs++
	*bytes += int64(len(f.B))
	b.sim.Schedule(b.latency, func() {
		defer f.Release()
		arrive(f.B)
	})
}

// refused counts a frame the receiving end refused against whoever could have
// made it so: the tap on its wire, or else the codec.
func (b *Bridge) refused(tap *Tap) {
	if tap != nil {
		tap.Killed()
		return
	}
	b.stats.MarshalErrors++
}

// Connect builds a datapath runtime for one flow, wired through the bridge
// with the given taps on its wire (nil for none; see TappedSender). It is
// the one setup path of simulated flows.
func (b *Bridge) Connect(cfg datapath.Config, toAgent, toDatapath *Tap) *datapath.CCP {
	cfg.Clock = b.sim
	var dp *datapath.CCP
	cfg.ToAgent = b.TappedSender(func(m proto.Msg) { dp.Deliver(m) }, toAgent, toDatapath)
	dp = datapath.New(cfg)
	return dp
}
