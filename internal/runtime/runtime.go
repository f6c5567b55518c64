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
// immutable after New.
//
// With Shards <= 1 there is one shard with no mailbox and no goroutine: the
// caller of HandleMessage runs the shard's agent itself, bit-identical to
// calling core.Agent directly. The deterministic simulator (internal/harness)
// runs that, and so does cmd/ccp-agent on one core; a goroutine per shard is
// what ccp-agent runs on more and what ./benchmark measures.
//
// The package is also the only thing that serves an agent: one frame step
// (serve.go) under the blocking ServeTransport loop, the polled ServeSet, and
// Serve, which accepts connections for the first.
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
)

// Config configures a Runtime.
type Config struct {
	// Shards is the number of parallel agent shards. 0 or 1 is a single shard
	// run synchronously by whoever calls HandleMessage.
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
	// Dispatched counts messages accepted for processing (synchronous calls
	// or mailbox enqueues).
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
	// DecodeErrors counts frames a serve loop received and could not decode.
	// They never reach HandleMessage, so Dispatched does not include them.
	DecodeErrors int64
	// Agent is the sum of every shard's core.AgentStats.
	Agent core.AgentStats
}

// item is one mailbox entry. Queued, m is the mailbox's own copy of the
// message (see mailbox.push), the shard's to read until its next pop.
type item struct {
	m     proto.Msg
	reply func(proto.Msg) error
	// done, when non-nil, marks a drain sentinel: the shard closes it instead
	// of dispatching.
	done chan struct{}
}

type shard struct {
	agent *core.Agent
	// mail is nil in the single shard of Shards <= 1, which has no goroutine
	// either: HandleMessage calls its agent directly.
	mail *mailbox
}

// Runtime is the sharded agent executor. It implements proto.Handler.
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
// Only this goroutine touches the shard's agent, so the agent's internal
// mutex never contends. The mailbox keeps queued entries poppable after
// close, so shutdown still drains in-flight work before the shard exits.
func (r *Runtime) run(sh *shard) {
	defer r.wg.Done()
	var prev proto.Msg // the container handled last, handed back by pop
	for {
		it, ok := sh.mail.pop(prev)
		if !ok {
			return
		}
		prev = it.m
		if it.done != nil {
			close(it.done)
			continue
		}
		sh.agent.HandleMessage(it.m, it.reply)
	}
}

// Shards returns the number of shards (at least 1).
func (r *Runtime) Shards() int { return len(r.shards) }

func (r *Runtime) shardFor(sid uint32) *shard {
	return r.shards[int(sid)%len(r.shards)]
}

// HandleMessage implements proto.Handler: it routes the message to its flow's
// shard. This is the one place the executor is chosen: a shard without a
// mailbox is run here, by the caller, as a direct synchronous call.
//
// Queued, the message outlives this call in a shard mailbox, while
// proto.Handler lets the caller reuse m as soon as we return — so the mailbox
// queues its own deep copy, made under the lock the enqueue takes anyway (see
// mailbox).
func (r *Runtime) HandleMessage(m proto.Msg, reply func(proto.Msg) error) {
	if sh := r.shards[0]; sh.mail == nil {
		r.dispatched.Add(1)
		sh.agent.HandleMessage(m, reply)
		return
	}
	if !r.shardFor(m.FlowSID()).mail.push(item{m: m, reply: reply}) {
		r.shutdownDropped.Add(1)
		return
	}
	r.dispatched.Add(1)
}

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

// Drain blocks until every message dispatched before the call has been
// handed to its shard's agent, by pushing a sentinel through each mailbox.
// It does not stop new messages from arriving; callers quiesce their senders
// first (the benchmark does this between load steps).
func (r *Runtime) Drain() {
	for _, sh := range r.shards {
		if sh.mail == nil {
			return // run by its callers: nothing is ever queued
		}
		done := make(chan struct{})
		if !sh.mail.push(item{done: done}) {
			return // closed: the shards are draining to exit anyway
		}
		// The sentinel is queued, so the shard is guaranteed to pop it even
		// if Close races in (close keeps queued entries poppable).
		<-done
	}
}

// Stats aggregates dispatch counters and every shard's agent counters.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Dispatched:      r.dispatched.Load(),
		ShutdownDropped: r.shutdownDropped.Load(),
		DecodeErrors:    r.decodeErrors.Load(),
	}
	for _, sh := range r.shards {
		addAgentStats(&s.Agent, sh.agent.Stats())
	}
	return s
}

// FlowCount sums live flows across shards.
func (r *Runtime) FlowCount() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.agent.FlowCount()
	}
	return n
}

func addAgentStats(dst *core.AgentStats, s core.AgentStats) {
	dst.FlowsCreated += s.FlowsCreated
	dst.FlowsClosed += s.FlowsClosed
	dst.Measurements += s.Measurements
	dst.Vectors += s.Vectors
	dst.Urgents += s.Urgents
	dst.UnknownFlowMsg += s.UnknownFlowMsg
	dst.UnknownAlgReq += s.UnknownAlgReq
	dst.Errors += s.Errors
	dst.DupCreates += s.DupCreates
	dst.DupUrgents += s.DupUrgents
	dst.StaleReports += s.StaleReports
	dst.Restores += s.Restores
	dst.Heartbeats += s.Heartbeats
	dst.ResyncAdopts += s.ResyncAdopts
	dst.InstallErrs += s.InstallErrs
	dst.InstallsByRef += s.InstallsByRef
	dst.RefResends += s.RefResends
}

// SnapshotInto streams every shard's flow state through sink (see
// core.Agent.SnapshotInto for the contract: the snapshot is scratch, clone
// to retain; full=false emits only the incremental delta). Shards are
// visited in index order, and each shard emits its flows in ascending SID
// order, so the stream is deterministic given quiescent shards. It is safe
// against concurrent dispatch — each shard agent's own lock serializes the
// export against that shard's message processing, and a flow mutated
// mid-pass is simply picked up by the next incremental round.
func (r *Runtime) SnapshotInto(full bool, sink func(*proto.Snapshot) error) (int, error) {
	total := 0
	for _, sh := range r.shards {
		n, err := sh.agent.SnapshotInto(full, sink)
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
func (r *Runtime) RestoreFlow(snap *proto.Snapshot) error {
	return r.shardFor(snap.SID).agent.RestoreFlow(snap)
}
