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
	// MailboxSize bounds each shard's queue (default 1024). A full mailbox
	// applies backpressure: the dispatching goroutine waits for space (or
	// shutdown), since silently losing congestion reports degrades control
	// quality where slowing the datapath channel does not.
	MailboxSize int
	// ShedWatermark, when in (0, 1], turns on overload shedding: once a
	// shard's queue occupancy reaches watermark×MailboxSize, enqueues evict
	// the oldest queued *report* (Measurement, Vector, or all-report Batch)
	// to make room, and the evicted flow is sent a proto.Backoff asking its
	// datapath to stretch its report interval. Urgents, Create/Close, and
	// mixed batches are never shed. 0 disables (the pre-shedding
	// behaviour). A single shard (Shards <= 1) has no queue and is unaffected.
	ShedWatermark float64
	// ShedBackoff is the report-interval stretch factor carried by the
	// Backoff sent to a shed flow (default 2).
	ShedBackoff float64
}

// Stats counts the runtime's dispatch activity. Agent aggregates the
// per-shard agent counters.
type Stats struct {
	// Dispatched counts messages accepted for processing (synchronous calls
	// or mailbox enqueues; a batch counts once per enqueued frame).
	Dispatched int64
	// Dropped is always 0: a full mailbox blocks and never discards. It
	// stays only because the benchmark harness reports it as runtime.dropped,
	// until that harness's next revision (ROADMAP item 2) retires the name.
	Dropped int64
	// ShutdownDropped counts messages that arrived during or after Close.
	ShutdownDropped int64
	// BatchesSplit counts batch frames that spanned shards and were split
	// into per-shard sub-batches.
	BatchesSplit int64
	// ReportsShed counts reports evicted by overload shedding (a shed batch
	// counts each report it carried); BackoffsSent counts the degradation
	// signals sent to the affected flows.
	ReportsShed  int64
	BackoffsSent int64
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
	// mine accepts the messages of this shard's flows: how it copies its share
	// out of a frame that spans shards. Made once, not per frame.
	mine func(proto.Msg) bool
}

// backoffPool lends the Backoff a shed is answered with. Sheds come from
// whichever goroutines are dispatching, several at once onto one shard, and
// reply only borrows the message — so it is per dispatch, not per shard: a
// shard-owned one would need a lock held across reply.
var backoffPool = sync.Pool{New: func() any { return new(proto.Backoff) }}

// Runtime is the sharded agent executor. It implements proto.Handler.
type Runtime struct {
	cfg    Config
	shards []*shard // never empty

	wg sync.WaitGroup

	closeOnce sync.Once

	dispatched      atomic.Int64
	shutdownDropped atomic.Int64
	batchesSplit    atomic.Int64
	reportsShed     atomic.Int64
	backoffsSent    atomic.Int64
	decodeErrors    atomic.Int64
}

// New validates cfg and returns a runtime. Shard goroutines (if any) start
// immediately.
func New(cfg Config) (*Runtime, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("runtime: negative shard count %d", cfg.Shards)
	}
	if cfg.MailboxSize <= 0 {
		cfg.MailboxSize = 1024
	}
	if cfg.ShedWatermark < 0 || cfg.ShedWatermark > 1 {
		return nil, fmt.Errorf("runtime: shed watermark %v outside [0, 1]", cfg.ShedWatermark)
	}
	if cfg.ShedBackoff <= 1 {
		cfg.ShedBackoff = 2
	}
	r := &Runtime{cfg: cfg}
	shedMark := 0
	if cfg.ShedWatermark > 0 {
		shedMark = int(cfg.ShedWatermark * float64(cfg.MailboxSize))
		if shedMark < 1 {
			shedMark = 1
		}
	}
	r.shards = make([]*shard, max(cfg.Shards, 1))
	for i := range r.shards {
		a, err := core.NewAgent(cfg.Agent)
		if err != nil {
			return nil, err
		}
		sh := &shard{agent: a}
		sh.mine = func(m proto.Msg) bool { return r.shardFor(m.FlowSID()) == sh }
		r.shards[i] = sh
		if cfg.Shards > 1 {
			sh.mail = newMailbox(cfg.MailboxSize, shedMark)
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
// mailbox is run here, by the caller, as a direct synchronous call. Batches
// whose messages span shards are split into per-shard sub-batches, preserving
// per-flow order (each flow's messages stay on one shard, in arrival order).
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
	if b, ok := m.(*proto.Batch); ok {
		r.routeBatch(b, reply)
		return
	}
	r.enqueue(r.shardFor(m.FlowSID()), m, nil, reply)
}

// routeBatch regroups a batch frame by destination shard. A frame whose
// messages all share one shard is forwarded intact (the agent unpacks it
// under a single lock acquisition); a mixed frame is split, each shard
// copying out its own messages in frame order. Shards are few, so that is
// one pass over the frame per shard rather than a grouping built per call.
func (r *Runtime) routeBatch(b *proto.Batch, reply func(proto.Msg) error) {
	if len(b.Msgs) == 0 {
		return
	}
	first := r.shardFor(b.Msgs[0].FlowSID())
	uniform := true
	for _, sub := range b.Msgs[1:] {
		if r.shardFor(sub.FlowSID()) != first {
			uniform = false
			break
		}
	}
	if uniform {
		r.enqueue(first, b, nil, reply)
		return
	}
	r.batchesSplit.Add(1)
	for _, sh := range r.shards {
		var only proto.Msg
		n := 0
		for _, sub := range b.Msgs {
			if sh.mine(sub) {
				only = sub
				n++
			}
		}
		switch n {
		case 0:
		case 1:
			r.enqueue(sh, only, nil, reply)
		default:
			r.enqueue(sh, b, sh.mine, reply)
		}
	}
}

// enqueue queues the mailbox's copy of m — of the messages keep accepts,
// when m is a batch only part of which is this shard's — and accounts for
// the outcome.
func (r *Runtime) enqueue(sh *shard, m proto.Msg, keep func(proto.Msg) bool, reply func(proto.Msg) error) {
	shed, ok := sh.mail.push(item{m: m, reply: reply}, keep)
	if !ok {
		r.shutdownDropped.Add(1)
		return
	}
	r.dispatched.Add(1)
	if shed.reports > 0 {
		r.onShed(shed)
	}
}

// onShed accounts for an evicted report and asks the shed flow's datapath
// to back off its report interval, so measurement frequency degrades at the
// source before correctness does. The Backoff rides the shed entry's reply
// path (the channel back to the datapath that sent the report); a send
// failure is ignored — the signal is advisory and the next shed retries.
func (r *Runtime) onShed(shed shedReport) {
	r.reportsShed.Add(int64(shed.reports))
	if shed.reply == nil {
		return
	}
	b := backoffPool.Get().(*proto.Backoff)
	*b = proto.Backoff{SID: shed.sid, Factor: r.cfg.ShedBackoff}
	err := shed.reply(b)
	backoffPool.Put(b)
	if err == nil {
		r.backoffsSent.Add(1)
	}
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
		if _, ok := sh.mail.push(item{done: done}, nil); !ok {
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
		BatchesSplit:    r.batchesSplit.Load(),
		ReportsShed:     r.reportsShed.Load(),
		BackoffsSent:    r.backoffsSent.Load(),
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
	dst.Batches += s.Batches
	dst.BatchedMsgs += s.BatchedMsgs
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
