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
// each frame by the SID in its header, a goroutine shard's mailbox holds a
// copy of its bytes, and every shard decodes its own input with its own
// decoder. The serve loops, the simulator's bridge and its agent fault
// injector all call HandleFrame, so the simulated control loop runs the
// routing and decode code that cmd/ccp-agent serves with.
//
// With Shards <= 1 there is one shard with no mailbox and no goroutine: the
// caller of HandleFrame decodes and runs the frame itself, under the shard's
// mutex. The deterministic simulator (internal/harness) runs that, and so
// does cmd/ccp-agent on one core; a goroutine per shard is what ccp-agent
// runs on more and what ./benchmark measures.
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
	// Shards is the number of parallel agent shards. 0 or 1 is a single shard
	// run synchronously by whoever calls HandleFrame.
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
	// Dispatched counts messages and frames accepted for processing
	// (synchronous calls or mailbox enqueues). A frame counts once it has
	// been routed to its shard, before the shard decodes it.
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
	// mail is nil in the single shard of Shards <= 1, which has no goroutine
	// either: HandleFrame runs its agent directly.
	mail *mailbox
	// mu serializes the callers who run the agent: HandleFrame's without a
	// mailbox, and exec's without a shard goroutine.
	mu sync.Mutex
	// dec decodes the shard's frames, on its goroutine or under mu.
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

// New validates cfg and returns a runtime. Shard goroutines (if any) start
// immediately.
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
		sh := &shard{agent: a}
		r.shards[i] = sh
		if cfg.Shards > 1 {
			sh.mail = newMailbox(size)
			r.wg.Add(1)
			go r.run(sh)
		}
	}
	return r, nil
}

// run is one shard's loop: pop the mailbox until it closes and drains.
// Only this goroutine touches the shard's agent until it exits. The mailbox
// keeps queued entries poppable after close, so shutdown still drains
// in-flight work before the shard exits.
func (r *Runtime) run(sh *shard) {
	defer r.wg.Done()
	var prev []byte // the buffer handled last, handed back by pop
	for {
		it, ok := sh.mail.pop(prev)
		if !ok {
			return
		}
		prev = it.frame
		if it.do != nil {
			it.do(sh.agent)
			continue
		}
		r.handleFrame(sh, it.frame, it.reply) // a bad frame is counted; nobody waits on it
	}
}

// handleFrame decodes frame into sh's scratch and hands it to sh's agent; a
// frame that does not decode is counted, goes no further, and is the error.
// It runs on the shard: its goroutine, or the caller under sh.mu.
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
	case *proto.Vector:
		v.SID = sid
		for i := range v.Data {
			v.Data[i] = nan
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
// (proto.FrameSID). A goroutine shard queues a copy and decodes it later; a
// caller-run shard decodes and runs it now. reply is lent each decision as
// its frame, for the duration of that call (see core.Agent.HandleMessage):
// what comes in and what goes out are both bytes, and both only borrowed.
// A frame too short
// to route is counted here and dispatched nowhere; one with a bad body is
// dispatched and counted by the shard that fails to decode it. The error is
// that of a frame refused before it reached an agent, as far as the caller
// can know: a goroutine shard's decode error is only counted.
func (r *Runtime) HandleFrame(frame []byte, reply func(frame []byte) error) error {
	sid, ok := proto.FrameSID(frame)
	if !ok {
		r.badFrame(errShortFrame)
		return errShortFrame
	}
	sh := r.shardFor(sid)
	if sh.mail == nil {
		r.dispatched.Add(1)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return r.handleFrame(sh, frame, reply)
	}
	r.enqueue(sh, frame, reply)
	return nil
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

// enqueue queues a copy of frame in sh's mailbox (see mailbox.push).
func (r *Runtime) enqueue(sh *shard, frame []byte, reply func(frame []byte) error) {
	if !sh.mail.push(item{reply: reply}, frame) {
		r.shutdownDropped.Add(1)
		return
	}
	r.dispatched.Add(1)
}

var errShortFrame = errors.New("runtime: frame too short to name its flow")

// Close shuts the runtime down: new messages are refused, queued messages
// are drained, and all shard goroutines exit before Close returns. A shard
// the caller runs has nothing to stop. Safe to call more than once.
func (r *Runtime) Close() {
	r.closeOnce.Do(func() {
		for _, sh := range r.shards {
			if sh.mail != nil {
				sh.mail.close()
			}
		}
	})
	r.wg.Wait()
}

// exec runs fn on sh's agent between two messages and returns once it has:
// queued behind every message before it on a goroutine shard (close keeps
// queued entries poppable), and under sh.mu on a caller-run shard or once
// Close has stopped the shard goroutines. fn must not call back into exec.
func (r *Runtime) exec(sh *shard, fn func(*core.Agent)) {
	if sh.mail != nil {
		done := make(chan struct{})
		if sh.mail.push(item{do: func(a *core.Agent) { fn(a); close(done) }}, nil) {
			<-done
			return
		}
		r.wg.Wait()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn(sh.agent)
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
