// Package runtime scales the user-space agent across cores: a sharded
// executor that partitions flows over N independent core.Agent instances by
// flow ID, so report processing for different flows proceeds in parallel
// with no cross-shard locking on the hot path (§4's "congestion control
// plane as a scalable service" direction).
//
// Sharding is by affinity — shard(SID) = SID mod N — so every message for a
// flow lands on the same shard and per-flow ordering is preserved without
// any global coordination. Each shard owns its agent (flow map, algorithm
// instances) outright; the only shared state is the dispatch table, which is
// immutable after New. Anything else that touches a shard's agent runs on the
// shard, between two messages (exec).
//
// A message reaches the runtime as frame bytes, through HandleFrame: it routes
// each frame by the SID in its header, the shard's mailbox holds a copy of
// its bytes, and every shard decodes its own input with its own decoder. The
// serve loops, the simulator's bridge and its agent fault injector all call
// HandleFrame, so the simulated control loop runs the routing, mailbox and
// decode code that cmd/ccp-agent serves with.
//
// Every shard is a mailbox drained by one loop, and only who drains it
// differs. Once a serve loop (ServeSet, and so Serve) runs, a goroutine per
// shard does, until Close: that is cmd/ccp-agent at any core count, and
// ./benchmark. Before, the caller of HandleFrame (or of Drain, SnapshotInto
// or RestoreFlow) that finds the shard with no drainer drains it before it
// returns, so the deterministic simulator (internal/harness), whose one event
// loop calls HandleFrame, has every frame handled when the call returns,
// whatever the number of shards.
//
// The package is also the only thing that serves an agent: the blocking
// ServeTransport loop, the polled ServeSet, and Serve, which hands each
// datapath that connects a ring the second serves.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
)

// Config configures a Runtime.
type Config struct {
	// Shards is the number of parallel agent shards; 0 means 1.
	Shards int
	// Agent configures every shard's agent (they share the registry and
	// policy; each shard instantiates its own flow table, and Stats().Agent
	// sums their counters).
	Agent core.AgentConfig
}

// mailboxSize bounds each shard's queue. A full mailbox applies
// backpressure: the dispatching goroutine waits for space (or shutdown),
// since silently losing congestion reports degrades control quality where
// slowing the datapath channel does not.
const mailboxSize = 1024

// Stats counts the runtime's dispatch activity. Agent aggregates the
// per-shard agent counters.
type Stats struct {
	// Dispatched counts frames accepted for processing: a frame counts once
	// it is queued in its shard's mailbox, before the shard decodes it.
	Dispatched int64
	// Dropped, BatchesSplit, ReportsShed and BackoffsSent are always 0: a
	// full mailbox blocks and never discards or sheds, and every frame is one
	// message with one shard. They stay only because the benchmark harness
	// reports them as runtime.{dropped,batches_split,reports_shed,
	// backoffs_sent}, until that harness's next revision (ROADMAP item 2)
	// retires the names.
	Dropped      int64
	BatchesSplit int64
	ReportsShed  int64
	BackoffsSent int64
	// ShutdownDropped counts messages that arrived during or after Close.
	ShutdownDropped int64
	// DecodeErrors counts frames received and not decoded: one too short to
	// route, counted by the serve loop and never dispatched, and one routed
	// to its shard whose body the shard could not decode, which Dispatched
	// includes. Neither reaches an agent.
	DecodeErrors int64
	// Agent is the sum of every shard's core.AgentStats.
	Agent core.AgentStats
}

// item is one mailbox entry. Queued, frame is the mailbox's own copy of an
// encoded message (see mailbox.push), the shard's to read until its next pop.
type item struct {
	frame []byte
	reply func(frame []byte) error
	// do, when non-nil, is a call the shard makes on its agent in place of a
	// message (see exec).
	do func(*core.Agent)
}

type shard struct {
	agent *core.Agent
	mail  *mailbox
	// dec decodes the shard's frames, on whoever drains the mailbox.
	dec proto.Decoder
}

// Runtime is the sharded agent executor.
type Runtime struct {
	cfg    Config
	shards []*shard // never empty

	wg sync.WaitGroup

	closeOnce sync.Once

	dispatched      atomic.Int64
	shutdownDropped atomic.Int64
	decodeErrors    atomic.Int64
}

// New validates cfg and returns a runtime. Its shards have no goroutine
// until a serve loop starts them.
func New(cfg Config) (*Runtime, error) { return newRuntime(cfg, mailboxSize) }

// newRuntime is New with shard mailboxes of size messages.
func newRuntime(cfg Config, size int) (*Runtime, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("runtime: negative shard count %d", cfg.Shards)
	}
	r := &Runtime{cfg: cfg}
	r.shards = make([]*shard, max(cfg.Shards, 1))
	for i := range r.shards {
		a, err := core.NewAgent(cfg.Agent)
		if err != nil {
			return nil, err
		}
		r.shards[i] = &shard{agent: a, mail: newMailbox(size)}
	}
	return r, nil
}

// serve starts a goroutine per shard to drain its mailbox from now until
// Close, where none does yet: every serve loop calls it first.
func (r *Runtime) serve() {
	for _, sh := range r.shards {
		if sh.mail.start(&r.wg) {
			go func() {
				defer r.wg.Done()
				r.run(sh, false)
			}()
		}
	}
}

// run is the one loop that drains sh's mailbox, handing each frame to the
// agent and running each exec call. On the shard goroutine (caller false) it
// runs until the mailbox is closed and drained: the mailbox keeps queued
// entries poppable after close, so shutdown still drains in-flight work. On
// a caller that push made the drainer, it runs until the mailbox is empty or
// a shard goroutine takes over, and returns the decode error of the first
// entry, which is the caller's own; a bad frame is otherwise only counted.
func (r *Runtime) run(sh *shard, caller bool) (err error) {
	var prev []byte // the buffer handled last, handed back by pop
	for first := true; ; first = false {
		it, ok := sh.mail.pop(prev, caller)
		if !ok {
			return err
		}
		prev = it.frame
		if it.do != nil {
			it.do(sh.agent)
		} else if e := r.handleFrame(sh, it.frame, it.reply); first {
			err = e
		}
	}
}

// handleFrame decodes frame into sh's scratch and hands it to sh's agent; a
// frame that does not decode is counted, goes no further, and is the error.
// It runs on the shard's drainer.
func (r *Runtime) handleFrame(sh *shard, frame []byte, reply func(frame []byte) error) error {
	m, err := sh.dec.Unmarshal(frame)
	if err != nil {
		r.badFrame(err)
		return err
	}
	sh.agent.HandleMessage(m, reply)
	if bufpool.DebugEnabled {
		poison(m)
	}
	return nil
}

// poison overwrites a shard decoder's scratch message once the agent has
// returned (under -tags debugpool), so anything still reading it — an
// algorithm that kept Measurement.Values past OnMeasurement — sees NaNs and
// flow 0xDBDBDBDB instead of a plausible stale report. (The agent poisons
// the frames it lends its replies itself.)
func poison(m proto.Msg) {
	const sid = 0xDBDBDBDB
	nan := math.NaN()
	switch v := m.(type) {
	case *proto.Measurement:
		v.SID = sid
		for i := range v.Fields {
			v.Fields[i] = nan
		}
	case *proto.Urgent:
		v.SID, v.Value = sid, nan
	}
}

// Shards returns the number of shards (at least 1).
func (r *Runtime) Shards() int { return len(r.shards) }

func (r *Runtime) shardFor(sid uint32) *shard {
	return r.shards[int(sid)%len(r.shards)]
}

// HandleFrame is the runtime's one way in: it routes one received frame,
// which it only borrows, to its flow's shard by the SID in its header
// (proto.FrameSID), whose mailbox queues a copy. If the shard had no drainer
// the caller now drains it, this frame first, before HandleFrame returns:
// until the mailbox is empty, so it also runs (and sends the replies of)
// whatever other goroutines push meanwhile, and is held for as long as they
// keep pushing. Under a serve loop the shard goroutines drain instead.
// reply is lent each decision as its frame, for the duration of that call
// (see core.Agent.HandleMessage): what comes in and what goes out are both
// bytes, and both only borrowed. A frame too short to route is counted here
// and dispatched nowhere; one with a bad body is dispatched and counted by
// the shard that fails to decode it; one that arrives during or after Close
// is counted in ShutdownDropped. The error is that of a frame refused before
// it reached an agent, as far as the caller can know: a short frame's, and
// the decode error of a frame the caller drained itself. Another drainer's
// decode error is only counted.
func (r *Runtime) HandleFrame(frame []byte, reply func(frame []byte) error) error {
	sid, ok := proto.FrameSID(frame)
	if !ok {
		r.badFrame(errShortFrame)
		return errShortFrame
	}
	sh := r.shardFor(sid)
	queued, drain := sh.mail.push(item{reply: reply}, frame)
	if !queued {
		r.shutdownDropped.Add(1)
		return nil
	}
	r.dispatched.Add(1)
	if !drain {
		return nil
	}
	return r.run(sh, true)
}

// HandleMessage marshals m into a pooled frame and hands it to HandleFrame,
// decoding each reply frame for reply, which borrows the message for the
// call. A message that does not marshal is counted with the frames that do
// not decode.
//
//lint:testsupport the message-level driver of the runtime, datapath and root tests and of benchmark/bench_test.go
func (r *Runtime) HandleMessage(m proto.Msg, reply func(proto.Msg) error) {
	f, err := proto.MarshalFrame(m)
	if err != nil {
		r.badFrame(err)
		return
	}
	r.HandleFrame(f.B, func(frame []byte) error {
		d, err := proto.Unmarshal(frame)
		if err != nil {
			return err
		}
		return reply(d)
	}) // what it refuses, it counts
	f.Release()
}

var errShortFrame = errors.New("runtime: frame too short to name its flow")

// Close shuts the runtime down: new messages are refused, queued messages
// are drained, and all shard goroutines exit before Close returns (a caller
// draining a shard finishes its mailbox as it would have). Safe to call more
// than once.
func (r *Runtime) Close() {
	r.closeOnce.Do(func() {
		for _, sh := range r.shards {
			sh.mail.close()
		}
	})
	r.wg.Wait()
}

// exec runs fn on sh's agent between two messages, queued behind every
// message before it, and returns once it has; after Close too, since a
// closed mailbox still takes an exec call. fn must not call back into exec.
// With no serve loop running, a caller that finds the shard with no drainer
// drains it as HandleFrame's does, other callers' frames and replies
// included, until the mailbox is empty.
func (r *Runtime) exec(sh *shard, fn func(*core.Agent)) {
	done := make(chan struct{})
	if _, drain := sh.mail.push(item{do: func(a *core.Agent) { fn(a); close(done) }}, nil); drain {
		r.run(sh, true)
	}
	<-done
}

// Drain blocks until every message dispatched before the call has been
// handed to its shard's agent. It does not stop new messages from arriving;
// callers quiesce their senders first (the benchmark does this between load
// steps).
func (r *Runtime) Drain() {
	for _, sh := range r.shards {
		r.exec(sh, func(*core.Agent) {})
	}
}

// Stats aggregates dispatch counters and every shard's agent counters,
// without waiting for a shard.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Dispatched:      r.dispatched.Load(),
		ShutdownDropped: r.shutdownDropped.Load(),
		DecodeErrors:    r.decodeErrors.Load(),
	}
	for _, sh := range r.shards {
		st := sh.agent.Stats()
		s.Agent.Add(&st)
	}
	return s
}

// FlowCount sums live flows across shards, without waiting.
func (r *Runtime) FlowCount() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.agent.FlowCount()
	}
	return n
}

// SnapshotInto streams every shard's flow state through sink (see
// core.Agent.SnapshotInto for the contract: the snapshot is scratch, clone
// to retain; full=false emits only the incremental delta). Shards are
// visited in index order, and each shard emits its flows in ascending SID
// order, so the stream is deterministic given quiescent shards. Each shard's
// pass runs on that shard between two messages (exec), so it captures every
// message dispatched to the shard before the pass was asked for, and sink runs
// on the shard: it must not call back into the runtime.
func (r *Runtime) SnapshotInto(full bool, sink func(*proto.Snapshot) error) (total int, err error) {
	for _, sh := range r.shards {
		var n int
		r.exec(sh, func(a *core.Agent) { n, err = a.SnapshotInto(full, sink) })
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// RestoreFlow rebuilds one flow from a snapshot on the shard that owns its
// SID, so the flow's next report finds it (see core.Agent.RestoreFlow). With
// SnapshotInto it makes a Runtime both ends of the HA pair: failover is
// runtime.New plus supervise.Standby.RestoreInto, in the simulator and in
// ccp-agent -standby alike.
func (r *Runtime) RestoreFlow(snap *proto.Snapshot) (err error) {
	r.exec(r.shardFor(snap.SID), func(a *core.Agent) { err = a.RestoreFlow(snap) })
	return err
}
