package runtime_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/bridge"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// seededStream is a datapath's side of a run over a few flows, one per
// algorithm that decides by SetCwnd, SetRate or Install: every flow's Create,
// then reports and urgents in a seeded order, each numbered within its flow.
func seededStream(t *testing.T, seed int64) [][]byte {
	t.Helper()
	algs := []string{"reno", "cubic", "vegas", "dctcp", "bbr", "timely"}
	var msgs []proto.Msg
	for i, name := range algs {
		msgs = append(msgs, &proto.Create{SID: uint32(i + 1), MSS: 1448, InitCwnd: 14480, Alg: name})
	}
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]uint32, len(algs))
	for range 300 {
		i := rng.Intn(len(algs))
		seqs[i]++
		sid := uint32(i + 1)
		if rng.Intn(5) == 0 {
			msgs = append(msgs, &proto.Urgent{SID: sid, Seq: seqs[i], Kind: proto.UrgentDupAck, Value: 1448})
			continue
		}
		rtt := 0.01 + 0.05*rng.Float64()
		msgs = append(msgs, &proto.Measurement{SID: sid, Seq: seqs[i], Fields: []float64{
			rtt, 1e6 * (1 + rng.Float64()), 1e6 * (1 + rng.Float64()),
			1448 * float64(1+rng.Intn(20)), 0, 0, rtt,
		}})
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		b, err := proto.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = b
	}
	return frames
}

// byFlow files decision frames under the flow each one is for, and keeps
// them in arrival order too.
type byFlow struct {
	mu    sync.Mutex
	flows map[uint32][][]byte
	all   [][]byte
	n     int
}

func (r *byFlow) add(t *testing.T, frame []byte) {
	m, err := proto.Unmarshal(frame)
	if err != nil {
		t.Errorf("a decision frame does not decode: %v", err)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flows == nil {
		r.flows = make(map[uint32][][]byte)
	}
	kept := bytes.Clone(frame)
	r.flows[m.FlowSID()] = append(r.flows[m.FlowSID()], kept)
	r.all = append(r.all, kept)
	r.n++
}

func newAlgRuntime(t *testing.T, shards int) *runtime.Runtime {
	t.Helper()
	rt, err := runtime.New(runtime.Config{Shards: shards,
		Agent: core.AgentConfig{Registry: algorithms.NewRegistry(), DefaultAlg: "reno"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// overTransport sends frames from the datapath end dp and reads back want
// decision frames from it while the agent answers them.
func overTransport(t *testing.T, dp ipc.Transport, frames [][]byte, want int) *byFlow {
	t.Helper()
	got := &byFlow{}
	read := make(chan error, 1)
	go func() {
		for range want {
			f, err := ipc.RecvFrame(dp)
			if err != nil {
				read <- err
				return
			}
			got.add(t, f.B)
			f.Release()
		}
		read <- nil
	}()
	for _, f := range frames {
		if err := dp.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("read back %d of %d decisions", got.n, want)
	}
	return got
}

// callerDrained runs frames through HandleFrame on a runtime of the given
// shards that no serve loop drives, as the simulator's event loop does: each
// call drains the frame's shard before it returns, so every decision is in
// once the last call has returned, with no Drain.
func callerDrained(t *testing.T, shards int, frames [][]byte) *byFlow {
	t.Helper()
	got := &byFlow{}
	rt := newAlgRuntime(t, shards)
	for _, f := range frames {
		if err := rt.HandleFrame(f, func(frame []byte) error { got.add(t, frame); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.Stats(); got.n == 0 || st.Agent.Errors != 0 || st.DecodeErrors != 0 || st.Dispatched != int64(len(frames)) {
		t.Fatalf("shards=%d: %d decisions, stats %+v", shards, got.n, st)
	}
	return got
}

// TestEveryExecutorSendsTheSameBytes runs one seeded stream through every way
// the agent is served — HandleFrame called directly on runtimes no serve loop
// drives, at 1, 2 and 4 shards, ServeSet on a shared-memory ring,
// ServeTransport on a Unix datagram socket, and the simulator's bridge — and
// checks that each flow gets the same decision frames, byte for byte, in the
// same order: a decision is marshalled once, by the agent, and a transport
// only carries the bytes it is lent. Where the callers drain the shards, the
// whole reply sequence is the same too, run after run and whatever the number
// of shards: that is what keeps a sharded agent deterministic under the
// simulator.
func TestEveryExecutorSendsTheSameBytes(t *testing.T) {
	frames := seededStream(t, 7)

	direct := callerDrained(t, 1, frames)
	installs := 0
	for _, fs := range direct.flows {
		for _, f := range fs {
			if f[0] == byte(proto.TypeInstall) {
				installs++
			}
		}
	}
	if installs == 0 || len(direct.flows) < 2 {
		t.Fatalf("the stream drew %d Installs over %d flows; it should exercise both kinds of decision", installs, len(direct.flows))
	}
	t.Logf("HandleFrame: %d decisions over %d flows, %d of them Installs", direct.n, len(direct.flows), installs)

	type executor struct {
		name string
		run  func(t *testing.T) *byFlow
	}
	var executors []executor
	for _, shards := range []int{1, 2, 4} {
		executors = append(executors, executor{fmt.Sprintf("HandleFrame/shards=%d", shards), func(t *testing.T) *byFlow {
			got := callerDrained(t, shards, frames)
			again := callerDrained(t, shards, frames)
			for _, run := range []*byFlow{got, again} {
				if len(run.all) != len(direct.all) {
					t.Fatalf("%d decisions, want %d", len(run.all), len(direct.all))
				}
				for i := range run.all {
					if !bytes.Equal(run.all[i], direct.all[i]) {
						t.Fatalf("decision %d of the whole sequence: got %x, want %x", i, run.all[i], direct.all[i])
					}
				}
			}
			return got
		}})
	}
	executors = append(executors, []executor{
		{"ServeSet/shmring", func(t *testing.T) *byFlow {
			dir := t.TempDir()
			mux, err := shmring.NewMux(filepath.Join(dir, "mux.bell"))
			if err != nil {
				t.Fatal(err)
			}
			dp, ag, err := shmring.Pair(filepath.Join(dir, "ring"), shmring.Options{}, shmring.Options{Bell: mux.Bell()})
			if err != nil {
				t.Fatal(err)
			}
			defer dp.Close()
			if err := mux.Adopt(ag); err != nil {
				t.Fatal(err)
			}
			rt := newAlgRuntime(t, 2)
			served := make(chan error, 1)
			go func() { served <- rt.ServeSet(mux) }()
			got := overTransport(t, dp, frames, direct.n)
			mux.Close()
			ag.Close()
			<-served
			return got
		}},
		{"ServeTransport/unixgram", func(t *testing.T) *byFlow {
			dir := t.TempDir()
			pa, pd := filepath.Join(dir, "agent"), filepath.Join(dir, "dp")
			ag, err := ipc.BindDgram(pa, pd)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := ipc.BindDgram(pd, pa)
			if err != nil {
				t.Fatal(err)
			}
			defer dp.Close()
			rt := newAlgRuntime(t, 2)
			served := make(chan error, 1)
			go func() { served <- runtime.ServeTransport(rt.HandleFrame, ag) }()
			got := overTransport(t, dp, frames, direct.n)
			ag.Close()
			<-served
			return got
		}},
		{"bridge", func(t *testing.T) *byFlow {
			sim := netsim.New(1)
			rt := newAlgRuntime(t, 1)
			got := &byFlow{}
			toDp := &bridge.Tap{
				Carry:  func(frame []byte, next func([]byte)) { got.add(t, frame); next(bytes.Clone(frame)) },
				Killed: func() { t.Error("the datapath's decoder refused a decision") },
			}
			toAgent := bridge.New(sim, rt.HandleFrame, 50*time.Microsecond).TappedSender(func(proto.Msg) {}, nil, toDp)
			for _, f := range frames {
				m, err := proto.Unmarshal(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := toAgent(m); err != nil {
					t.Fatal(err)
				}
			}
			sim.Run(time.Second)
			return got
		}},
	}...)
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			got := e.run(t)
			if got.n != direct.n {
				t.Fatalf("%d decisions, want HandleFrame's %d", got.n, direct.n)
			}
			for sid, want := range direct.flows {
				have := got.flows[sid]
				for i := range want {
					if i >= len(have) || !bytes.Equal(have[i], want[i]) {
						t.Fatalf("flow %d, decision %d: got %s, want %x", sid, i, frameAt(have, i), want[i])
					}
				}
			}
		})
	}
}

func frameAt(fs [][]byte, i int) string {
	if i >= len(fs) {
		return "nothing"
	}
	return fmt.Sprintf("%x", fs[i])
}
