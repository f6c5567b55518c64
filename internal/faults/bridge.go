package faults

import (
	"time"

	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
)

// Bridge wraps a simulator IPC bridge with fault injection. The injector is
// applied to the frames the inner bridge has already encoded (so corruption
// exercises the real decoders) on their way to the inner bridge's one decode:
// a message is marshalled once and unmarshalled once whether or not a fault
// touches it. It offers the same Connect entry point as bridge.Bridge, so
// harnesses can swap it in.
type Bridge struct {
	inner *bridge.Bridge
	sim   *netsim.Sim
	inj   *Injector
}

// NewBridge wraps inner with plan. Randomness comes from the simulator's
// seeded RNG, so runs are deterministic per seed; with a zero plan the
// wrapper consumes no randomness and behaviour is bit-identical to the
// unwrapped bridge.
func NewBridge(sim *netsim.Sim, inner *bridge.Bridge, plan Plan) *Bridge {
	inj := NewInjector(plan, sim.Rand(), func(d time.Duration, fn func()) {
		sim.Schedule(d, fn)
	})
	return &Bridge{inner: inner, sim: sim, inj: inj}
}

// Stats returns the injector's fault counters.
func (b *Bridge) Stats() Stats { return b.inj.Stats() }

// Connect builds a datapath runtime for one flow whose channel to and from
// the agent passes through the fault injector: datapath→agent faults apply
// before the bridge's latency (the total delay, jitter + latency, is what the
// agent observes), agent→datapath faults after it.
//
// Directions with a zero plan are not tapped at all: no fault can touch the
// bytes and no delivery outlives the call, so the pooled frame crosses the
// inner bridge uncopied. Delivery counters advance exactly as the injector's
// zero-plan path would, keeping fault sweeps' rate-0 rows comparable.
func (b *Bridge) Connect(cfg datapath.Config) *datapath.CCP {
	cfg.Clock = b.sim
	var dp *datapath.CCP
	deliver := func(m proto.Msg) { dp.Deliver(m) }
	if b.inj.plan.ToDatapath.Zero() {
		deliver = func(m proto.Msg) {
			b.inj.stats.ToDatapath.Delivered++
			dp.Deliver(m)
		}
	}
	send := b.inner.TappedSender(deliver, b.tap(ToAgent), b.tap(ToDatapath))
	cfg.ToAgent = send
	if b.inj.plan.ToAgent.Zero() {
		cfg.ToAgent = func(m proto.Msg) error {
			b.inj.stats.ToAgent.Delivered++
			return send(m)
		}
	}
	dp = datapath.New(cfg)
	return dp
}

// tap puts the injector on one direction of a connection's wire; nil when
// the direction's plan is zero. The injector's deliveries may outlive the
// call or happen twice, and the frame is the bridge's pooled buffer, so the
// bytes are copied out of it once.
func (b *Bridge) tap(dir Dir) *bridge.Tap {
	if b.inj.plan.dir(dir).Zero() {
		return nil
	}
	return &bridge.Tap{
		Carry: func(frame []byte, next func([]byte)) {
			b.inj.Apply(dir, append([]byte(nil), frame...), next)
		},
		Killed: func() { b.inj.NoteDecodeKilled(dir) },
	}
}
