package faults_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/faults"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// noSchedule fails the test if the injector tries to delay a delivery.
func noSchedule(t *testing.T) func(time.Duration, func()) {
	return func(d time.Duration, fn func()) {
		t.Fatalf("unexpected delayed delivery (%v)", d)
	}
}

func TestZeroPlanConsumesNoRandomness(t *testing.T) {
	const seed = 7
	rng := rand.New(rand.NewSource(seed))
	inj := faults.NewInjector(faults.Plan{}, rng, noSchedule(t))
	var got [][]byte
	for i := 0; i < 10; i++ {
		inj.Apply(faults.ToAgent, []byte{byte(i)}, func(d []byte) { got = append(got, d) })
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d of 10", len(got))
	}
	for i, d := range got {
		if len(d) != 1 || d[0] != byte(i) {
			t.Fatalf("message %d reordered or mutated: %v", i, d)
		}
	}
	// The RNG must be untouched: its next draw matches a fresh one.
	if rng.Int63() != rand.New(rand.NewSource(seed)).Int63() {
		t.Fatal("zero plan consumed randomness")
	}
	st := inj.Stats()
	if st.ToAgent.Delivered != 10 || st.ToAgent.Dropped != 0 {
		t.Fatalf("stats=%+v", st)
	}
	// Nor does a zero plan put anything on a bridge's wire.
	if inj.Tap(faults.ToAgent) != nil || inj.Tap(faults.ToDatapath) != nil {
		t.Fatal("zero plan tapped the wire")
	}
}

func TestDropAll(t *testing.T) {
	plan := faults.Plan{ToDatapath: faults.DirPlan{Drop: 1}}
	inj := faults.NewInjector(plan, rand.New(rand.NewSource(1)), noSchedule(t))
	for i := 0; i < 5; i++ {
		inj.Apply(faults.ToDatapath, []byte{1}, func([]byte) { t.Fatal("delivered") })
	}
	if st := inj.Stats().ToDatapath; st.Dropped != 5 || st.Delivered != 0 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestDuplicateAll(t *testing.T) {
	plan := faults.Plan{ToAgent: faults.DirPlan{Duplicate: 1}}
	inj := faults.NewInjector(plan, rand.New(rand.NewSource(1)), noSchedule(t))
	n := 0
	for i := 0; i < 4; i++ {
		inj.Apply(faults.ToAgent, []byte{byte(i)}, func([]byte) { n++ })
	}
	if n != 8 {
		t.Fatalf("delivered %d copies, want 8", n)
	}
	if st := inj.Stats().ToAgent; st.Duplicated != 4 || st.Delivered != 8 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestCorruptMutatesCopyNotInput(t *testing.T) {
	plan := faults.Plan{ToAgent: faults.DirPlan{Corrupt: 1}}
	inj := faults.NewInjector(plan, rand.New(rand.NewSource(3)), noSchedule(t))
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	mutated := 0
	for i := 0; i < 50; i++ {
		in := append([]byte(nil), orig...)
		inj.Apply(faults.ToAgent, in, func(d []byte) {
			if !bytes.Equal(d, orig) {
				mutated++
			}
		})
		if !bytes.Equal(in, orig) {
			t.Fatal("input slice was modified in place")
		}
	}
	if mutated == 0 {
		t.Fatal("50 corruptions, zero mutations observed")
	}
	// A draw that leaves the bytes as they were is no corruption.
	if st := inj.Stats().ToAgent; st.Corrupted != mutated {
		t.Fatalf("%d copies mutated, stats=%+v", mutated, st)
	}
}

func TestReorderHoldsDelivery(t *testing.T) {
	plan := faults.Plan{ToAgent: faults.DirPlan{Reorder: 1}}
	var delay time.Duration
	var held func()
	inj := faults.NewInjector(plan, rand.New(rand.NewSource(1)),
		func(d time.Duration, fn func()) { delay, held = d, fn })
	delivered := 0
	inj.Apply(faults.ToAgent, []byte{9}, func([]byte) { delivered++ })
	if delivered != 0 {
		t.Fatal("reordered message delivered synchronously")
	}
	if delay != time.Millisecond { // default hold with zero jitter
		t.Fatalf("hold=%v, want 1ms", delay)
	}
	held()
	if delivered != 1 {
		t.Fatal("held message never delivered")
	}
	if st := inj.Stats().ToAgent; st.Reordered != 1 || st.Delivered != 1 {
		t.Fatalf("stats=%+v", st)
	}
}

// fateLog runs a fixed message sequence through an injector and records every
// delivery (payload + delay), executing delayed deliveries immediately.
func fateLog(seed int64, plan faults.Plan) ([]string, faults.Stats) {
	var log []string
	var pending time.Duration
	inj := faults.NewInjector(plan, rand.New(rand.NewSource(seed)),
		func(d time.Duration, fn func()) { pending = d; fn(); pending = 0 })
	for i := 0; i < 200; i++ {
		dir := faults.ToAgent
		if i%2 == 1 {
			dir = faults.ToDatapath
		}
		inj.Apply(dir, []byte{byte(i), byte(i >> 4)}, func(d []byte) {
			log = append(log, string(d)+"@"+pending.String())
		})
	}
	return log, inj.Stats()
}

func TestDeterministicPerSeed(t *testing.T) {
	plan := faults.Uniform(0.3, 2*time.Millisecond)
	log1, st1 := fateLog(42, plan)
	log2, st2 := fateLog(42, plan)
	if !reflect.DeepEqual(log1, log2) {
		t.Fatal("same seed produced different fates")
	}
	if st1 != st2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", st1, st2)
	}
	log3, _ := fateLog(43, plan)
	if reflect.DeepEqual(log1, log3) {
		t.Fatal("different seeds produced identical fates (suspicious)")
	}
}

// channelRun is the observable outcome of one simulated flow; a run under a
// zero plan must reproduce the plain bridge's outcome bit for bit.
type channelRun struct {
	agent core.AgentStats
	dp    datapath.Stats
	cwnd  int
	fault faults.Stats
}

// runChannel drives one CCP flow for two seconds through the plain bridge
// (plan == nil) or through the bridge with an injector's taps on its wire.
func runChannel(t *testing.T, plan *faults.Plan) channelRun {
	t.Helper()
	sim := netsim.New(1)
	agent := newRenoRuntime(t)
	br := bridge.New(sim, agent.HandleFrame, 50*time.Microsecond)

	cfg := datapath.Config{SID: 1, Alg: "reno"}
	var dp *datapath.CCP
	var inj *faults.Injector
	if plan == nil {
		dp = br.Connect(cfg, nil, nil)
	} else {
		inj = newSimInjector(sim, *plan)
		dp = br.Connect(cfg, inj.Tap(faults.ToAgent), inj.Tap(faults.ToDatapath))
	}

	flow := startFlow(sim, dp)
	sim.Run(2 * time.Second)

	out := channelRun{agent: agent.Stats().Agent, dp: dp.Stats(), cwnd: flow.Conn.Cwnd()}
	if inj != nil {
		out.fault = inj.Stats()
	}
	return out
}

// newRenoRuntime is the simulator's agent: a one-shard runtime, run by the
// bridge's caller, whose flows default to reno.
func newRenoRuntime(t *testing.T) *runtime.Runtime {
	t.Helper()
	rt, err := runtime.New(runtime.Config{Shards: 1, Agent: core.AgentConfig{Registry: algorithms.NewRegistry(), DefaultAlg: "reno"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// newSimInjector is the injector a simulated deployment puts on its bridge:
// randomness from the simulator's seeded RNG, delays on its clock.
func newSimInjector(sim *netsim.Sim, plan faults.Plan) *faults.Injector {
	return faults.NewInjector(plan, sim.Rand(), func(d time.Duration, fn func()) {
		sim.Schedule(d, fn)
	})
}

// startFlow starts one flow under dp on an 8 Mbit/s, 10 ms path.
func startFlow(sim *netsim.Sim, dp *datapath.CCP) *tcp.Flow {
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	path := netsim.NewPath(sim, netsim.PathConfig{
		Bottleneck: netsim.LinkConfig{RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20},
	}, fwd, rev)
	flow := tcp.NewFlow(sim, 1, path, fwd, rev, dp, tcp.Options{})
	flow.Conn.Start()
	return flow
}

func TestBridgeZeroPlanBitIdentical(t *testing.T) {
	plain := runChannel(t, nil)
	zero := runChannel(t, &faults.Plan{})
	if zero.fault.Total().Dropped != 0 || zero.fault.Total().Corrupted != 0 {
		t.Fatalf("zero plan injected faults: %+v", zero.fault)
	}
	zero.fault = faults.Stats{}
	plain.fault = faults.Stats{}
	if !reflect.DeepEqual(plain, zero) {
		t.Fatalf("zero-plan run diverged from plain bridge:\nplain=%+v\nzero =%+v", plain, zero)
	}
	if plain.agent.FlowsCreated != 1 || plain.dp.SetCwndRecvd == 0 {
		t.Fatalf("sanity: flow never ran: %+v", plain)
	}
}

func TestBridgeDropStarvesAgent(t *testing.T) {
	plan := faults.Plan{ToAgent: faults.DirPlan{Drop: 1}}
	run := runChannel(t, &plan)
	if run.agent.FlowsCreated != 0 {
		t.Fatalf("agent saw %d creates through a fully lossy channel", run.agent.FlowsCreated)
	}
	if run.fault.ToAgent.Dropped == 0 {
		t.Fatalf("no drops recorded: %+v", run.fault)
	}
}

func TestBridgeCorruptionIsDecodeKilled(t *testing.T) {
	plan := faults.Uniform(0, 0)
	plan.ToAgent.Corrupt = 1
	plan.ToDatapath.Corrupt = 1
	run := runChannel(t, &plan)
	tot := run.fault.Total()
	if tot.Corrupted == 0 {
		t.Fatalf("no corruptions: %+v", run.fault)
	}
	if tot.DecodeKilled == 0 {
		t.Fatalf("hardened decoders rejected nothing out of %d corruptions", tot.Corrupted)
	}
	// The flow must survive regardless: corruption never crashes either end.
	if run.cwnd <= 0 {
		t.Fatalf("cwnd=%d", run.cwnd)
	}
}

// runRecorded drives one flow's reports through a tapped bridge into a
// recordingAgent for a second, then lets everything in flight land.
func runRecorded(t *testing.T, plan faults.Plan) (*recordingAgent, faults.DirStats, bridge.Stats) {
	t.Helper()
	sim := netsim.New(1)
	rec := &recordingAgent{}
	inner := bridge.New(sim, rec.handle, 50*time.Microsecond)
	inj := newSimInjector(sim, plan)
	flow := startFlow(sim, inner.Connect(datapath.Config{SID: 1, Alg: "reno"},
		inj.Tap(faults.ToAgent), inj.Tap(faults.ToDatapath)))
	sim.Schedule(time.Second, flow.Conn.Stop)
	sim.Run(2 * time.Second)
	return rec, inj.Stats().ToAgent, inner.Stats()
}

func TestBridgeDuplicateArrivesTwiceAndEqual(t *testing.T) {
	// The injector hands the same bytes on twice; each copy crosses the inner
	// bridge as its own frame and is decoded on its own.
	rec, st, inner := runRecorded(t, faults.Plan{ToAgent: faults.DirPlan{Duplicate: 1}})
	if st.Duplicated == 0 || len(rec.msgs) != 2*st.Duplicated {
		t.Fatalf("handler saw %d messages for %d duplicated frames", len(rec.msgs), st.Duplicated)
	}
	for i := 0; i < len(rec.msgs); i += 2 {
		if !reflect.DeepEqual(rec.msgs[i], rec.msgs[i+1]) {
			t.Fatalf("copies %d and %d differ:\n%#v\n%#v", i, i+1, rec.msgs[i], rec.msgs[i+1])
		}
	}
	if inner.ToAgentMsgs != len(rec.msgs) || inner.MarshalErrors != 0 {
		t.Fatalf("inner bridge carried %d frames with %d codec errors, want %d and 0",
			inner.ToAgentMsgs, inner.MarshalErrors, len(rec.msgs))
	}
}

func TestBridgeKilledFrameCountedOnceNeverDelivered(t *testing.T) {
	// Every frame is corrupted on the wire. One the agent-side decoder refuses
	// is the injector's kill — counted there once, not as a codec error of the
	// inner bridge — and the handler never hears of it.
	rec, st, inner := runRecorded(t, faults.Plan{ToAgent: faults.DirPlan{Corrupt: 1}})
	if st.Corrupted == 0 || st.Corrupted != st.Delivered {
		t.Fatalf("not every frame was corrupted: %+v", st)
	}
	if st.DecodeKilled == 0 {
		t.Fatalf("hardened decoder rejected nothing out of %d corruptions", st.Corrupted)
	}
	if len(rec.msgs)+st.DecodeKilled != st.Delivered {
		t.Fatalf("%d frames on the wire, %d killed, but the handler saw %d", st.Delivered, st.DecodeKilled, len(rec.msgs))
	}
	if inner.MarshalErrors != 0 {
		t.Fatalf("inner bridge booked %d injected kills as its own codec errors", inner.MarshalErrors)
	}
	if inner.ToAgentMsgs != st.Delivered {
		t.Fatalf("inner bridge carried %d frames, injector passed on %d", inner.ToAgentMsgs, st.Delivered)
	}
}

// A frame bound for the agent crosses the bridge undecoded, and the agent's
// runtime decodes it. One the channel corrupted past decoding is the
// injector's kill, counted once, and reaches no agent counter: the agent
// ends as one that was handed only the frames that decode.
func TestBridgeKilledFrameReachesNoAgentCounter(t *testing.T) {
	sim := netsim.New(1)
	agent, shadow := newRenoRuntime(t), newRenoRuntime(t)
	killed := 0
	br := bridge.New(sim, func(frame []byte, reply func([]byte) error) error {
		if _, err := proto.Unmarshal(frame); err != nil {
			killed++
		} else {
			shadow.HandleFrame(frame, func([]byte) error { return nil })
		}
		return agent.HandleFrame(frame, reply)
	}, 50*time.Microsecond)
	inj := newSimInjector(sim, faults.Plan{ToAgent: faults.DirPlan{Corrupt: 0.3}})
	startFlow(sim, br.Connect(datapath.Config{SID: 1, Alg: "reno"}, inj.Tap(faults.ToAgent), nil))
	sim.Run(2 * time.Second)

	st, rt := inj.Stats().ToAgent, agent.Stats()
	if killed == 0 || st.DecodeKilled != killed {
		t.Fatalf("%d frames failed to decode, the channel counted %d kills", killed, st.DecodeKilled)
	}
	if rt.DecodeErrors != int64(killed) {
		t.Fatalf("runtime counted %d bad frames, want the %d killed", rt.DecodeErrors, killed)
	}
	if want := shadow.Stats().Agent; rt.Agent != want || want.Measurements == 0 {
		t.Fatalf("agent counters %+v, want those of the frames that decode, %+v", rt.Agent, want)
	}
	if br.Stats().MarshalErrors != 0 {
		t.Fatalf("bridge booked %d kills as codec errors", br.Stats().MarshalErrors)
	}
}

// Corrupted counts copies: a message corrupted and then duplicated is two
// corrupted copies on the wire, and the receiver's check refuses both. With
// no delay in the plan every copy lands within the run, so in each
// direction the copies corrupted are the copies killed.
func TestEveryCorruptedCopyIsKilled(t *testing.T) {
	sim := netsim.New(1)
	br := bridge.New(sim, newRenoRuntime(t).HandleFrame, 50*time.Microsecond)
	d := faults.DirPlan{Corrupt: 0.3, Duplicate: 0.3}
	inj := newSimInjector(sim, faults.Plan{ToAgent: d, ToDatapath: d})
	flow := startFlow(sim, br.Connect(datapath.Config{SID: 1, Alg: "reno"},
		inj.Tap(faults.ToAgent), inj.Tap(faults.ToDatapath)))
	sim.Schedule(time.Second, flow.Conn.Stop)
	sim.Run(2 * time.Second)

	st := inj.Stats()
	for _, dir := range []faults.Dir{faults.ToAgent, faults.ToDatapath} {
		s := st.ToAgent
		if dir == faults.ToDatapath {
			s = st.ToDatapath
		}
		if s.Corrupted == 0 || s.Duplicated == 0 {
			t.Fatalf("%v: the plan neither corrupted nor duplicated: %+v", dir, s)
		}
		if s.DecodeKilled != s.Corrupted {
			t.Errorf("%v: %d copies corrupted, %d killed: %+v", dir, s.Corrupted, s.DecodeKilled, s)
		}
	}
}
