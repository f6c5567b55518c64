package datapath_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// flatten expands batches so tests can compare the logical message stream the
// agent observes regardless of framing.
func flatten(sent []proto.Msg) []proto.Msg {
	var out []proto.Msg
	for _, m := range sent {
		out = append(out, proto.Split(m)...)
	}
	return out
}

func reportSeqs(msgs []proto.Msg) []uint32 {
	var seqs []uint32
	for _, m := range msgs {
		switch v := m.(type) {
		case *proto.Measurement:
			seqs = append(seqs, v.Seq)
		case *proto.Vector:
			seqs = append(seqs, v.Seq)
		}
	}
	return seqs
}

func TestBatchingReducesIPCMessages(t *testing.T) {
	run := func(interval time.Duration) *rig {
		r := newRig(t, link8(), tcp.Options{}, datapath.Config{BatchInterval: interval})
		r.flow.Conn.Start()
		r.sim.Run(2 * time.Second)
		return r
	}
	plain := run(0)
	batched := run(100 * time.Millisecond) // ~10 RTTs of reports per frame

	if plain.dp.Stats().BatchesSent != 0 {
		t.Fatalf("unbatched rig sent batches: %+v", plain.dp.Stats())
	}
	if batched.dp.Stats().BatchesSent == 0 {
		t.Fatalf("batched rig sent no batches: %+v", batched.dp.Stats())
	}
	// Same logical report stream either way (coalescing only changes framing).
	if pn, bn := plain.dp.Stats().ReportsSent, batched.dp.Stats().ReportsSent; pn != bn {
		t.Fatalf("reports diverged: plain=%d batched=%d", pn, bn)
	}
	// The wire carries far fewer messages with a 10-RTT window.
	if len(batched.sent)*4 > len(plain.sent) {
		t.Fatalf("batching barely helped: %d vs %d wire messages", len(batched.sent), len(plain.sent))
	}
}

func TestBatchingPreservesLogicalStream(t *testing.T) {
	run := func(interval time.Duration) []proto.Msg {
		r := newRig(t, link8(), tcp.Options{}, datapath.Config{BatchInterval: interval})
		r.flow.Conn.Start()
		r.sim.Run(time.Second)
		r.flow.Conn.Stop() // flushes any pending frame
		return flatten(r.sent)
	}
	plain := run(0)
	batched := run(80 * time.Millisecond)
	if len(plain) != len(batched) {
		t.Fatalf("stream lengths diverged: plain=%d batched=%d", len(plain), len(batched))
	}
	for i := range plain {
		pe, err1 := proto.Marshal(plain[i])
		be, err2 := proto.Marshal(batched[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(pe) != string(be) {
			t.Fatalf("msg %d diverged:\nplain   %+v\nbatched %+v", i, plain[i], batched[i])
		}
	}
	// Report sequence numbers are consecutive from 1 in generation order.
	seqs := reportSeqs(batched)
	for i, s := range seqs {
		if s != uint32(i+1) {
			t.Fatalf("report %d has seq %d", i, s)
		}
	}
}

func TestUrgentFlushesPendingReports(t *testing.T) {
	// A tiny queue forces drops → urgents. With a long batch window, reports
	// coalesce; each urgent must flush them first so the flattened stream
	// stays in generation order.
	link := netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 8 * 1500}
	r := newRig(t, link, tcp.Options{}, datapath.Config{BatchInterval: 200 * time.Millisecond})
	r.flow.Conn.Start()
	install(t, r, lang.NewProgram().Cwnd(lang.C(80*1448)).WaitRtts(1).Report().MustBuild())
	r.sim.Run(3 * time.Second)
	if r.countMsgs(proto.TypeUrgent) == 0 {
		t.Fatal("no urgents despite forced drops")
	}
	// No urgent may be wrapped inside a batch frame.
	for _, m := range r.sent {
		if b, ok := m.(*proto.Batch); ok {
			for _, sub := range b.Msgs {
				if sub.Type() == proto.TypeUrgent {
					t.Fatal("urgent coalesced into a batch")
				}
			}
		}
	}
	// Flattened stream: report seqs strictly increasing (flush-before-urgent
	// keeps order), and an urgent never overtakes an earlier report.
	seqs := reportSeqs(flatten(r.sent))
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("report order violated at %d: %v", i, seqs[i-1:i+1])
		}
	}
}

func TestCloseFlushesPendingReports(t *testing.T) {
	// Interval far longer than the run: reports only leave because Close
	// flushes them.
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{BatchInterval: 10 * time.Second})
	r.flow.Conn.Start()
	r.sim.Run(300 * time.Millisecond)
	r.flow.Conn.Stop()
	flat := flatten(r.sent)
	reports := len(reportSeqs(flat))
	if reports != r.dp.Stats().ReportsSent {
		t.Fatalf("flushed %d reports, datapath generated %d", reports, r.dp.Stats().ReportsSent)
	}
	if reports == 0 {
		t.Fatal("no reports generated")
	}
	if flat[len(flat)-1].Type() != proto.TypeClose {
		t.Fatalf("last message is %v, want Close after the flush", flat[len(flat)-1].Type())
	}
}

func TestMaxBatchMsgsFlushesEarly(t *testing.T) {
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{
		BatchInterval: 10 * time.Second, // timer never fires in a 1 s run
		MaxBatchMsgs:  3,
	})
	r.flow.Conn.Start()
	r.sim.Run(time.Second)
	st := r.dp.Stats()
	if st.BatchesSent == 0 {
		t.Fatalf("size trigger never flushed: %+v", st)
	}
	for _, m := range r.sent {
		if b, ok := m.(*proto.Batch); ok && len(b.Msgs) > 3 {
			t.Fatalf("batch of %d exceeds MaxBatchMsgs=3", len(b.Msgs))
		}
	}
}

// TestBatchFramesCarryTwoOrMore: a batch that drained to one report is sent
// plain, so every frame on the wire carries at least two, and Stats counts
// exactly the frames and reports that crossed as batches. A 5 ms window is
// shorter than the round trip a report waits for, so each of its flushes holds
// one report; a 100 ms window holds several.
func TestBatchFramesCarryTwoOrMore(t *testing.T) {
	for _, tc := range []struct {
		interval       time.Duration
		plain, batched bool
	}{{5 * time.Millisecond, true, false}, {100 * time.Millisecond, false, true}} {
		r := newRig(t, link8(), tcp.Options{}, datapath.Config{BatchInterval: tc.interval})
		r.flow.Conn.Start()
		r.sim.Run(2 * time.Second)
		plain, batches, batched := 0, 0, 0
		for _, m := range r.sent {
			switch v := m.(type) {
			case *proto.Measurement:
				plain++
			case *proto.Batch:
				if len(v.Msgs) < 2 {
					t.Fatalf("%v: batch %d carries %d reports; one is sent plain", tc.interval, batches, len(v.Msgs))
				}
				batches++
				batched += len(v.Msgs)
			}
		}
		if (plain > 0) != tc.plain || (batches > 0) != tc.batched {
			t.Fatalf("%v: %d reports sent plain and %d batches, want plain %v, batches %v",
				tc.interval, plain, batches, tc.plain, tc.batched)
		}
		if st := r.dp.Stats(); batches != st.BatchesSent || batched != st.BatchedReports {
			t.Fatalf("%v: wire carried %d batches of %d reports, Stats counts %d of %d",
				tc.interval, batches, batched, st.BatchesSent, st.BatchedReports)
		}
	}
}
