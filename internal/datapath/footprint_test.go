package datapath_test

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/cc"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	ccpruntime "github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/tcp"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// What a flow costs the datapath: the size of the struct every flow has, the
// allocations of making one, which optional features a flow pays for, and the
// live heap of ten thousand of them.

// TestCCPSize pins the per-flow struct at what it measures, 544 bytes (the
// 576-byte size class). A flow in the default configuration is one of tens
// of thousands (benchmark's direct50k); if this fails, what was added belongs
// in its feature's struct (failsafe, smoother, vectorState), behind the
// pointer only the flows that use the feature pay for.
func TestCCPSize(t *testing.T) {
	if got := unsafe.Sizeof(datapath.CCP{}); got > 544 {
		t.Fatalf("datapath.CCP is %d bytes, want <= 544", got)
	}
}

// TestAllocsNewFlow pins what New and Init allocate for the default Config,
// the measured count: the CCP, the Create it announces itself with, the
// variable table, the wait timer and that timer's callback.
func TestAllocsNewFlow(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	sim := netsim.New(1)
	cfg := datapath.Config{SID: 1, Clock: sim, ToAgent: func(proto.Msg) error { return nil }}
	conn := tcp.NewConn(sim, 1, nil, datapath.New(cfg), tcp.Options{})
	if allocs := testing.AllocsPerRun(200, func() { datapath.New(cfg).Init(conn) }); allocs > 5 {
		t.Fatalf("New+Init allocated %.1f times, want <= 5", allocs)
	}
}

// TestAllocsNewWithoutRegistry: there is no metrics registry, so a flow holds
// no instruments. New allocates the CCP and nothing else — never ten counters
// and a 544-byte histogram nothing could read.
func TestAllocsNewWithoutRegistry(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := datapath.Config{SID: 1, Clock: netsim.New(1), ToAgent: func(proto.Msg) error { return nil }}
	if allocs := testing.AllocsPerRun(100, func() { datapath.New(cfg) }); allocs != 1 {
		t.Fatalf("New allocated %.1f times, want 1", allocs)
	}
}

// TestFeatureStateOnlyWhereUsed drives a flow through a bit of everything a
// default-configuration flow does and checks it ends with no feature struct;
// then, for each feature, that configuring or exercising it gives the flow
// that feature's struct and no other.
func TestFeatureStateOnlyWhereUsed(t *testing.T) {
	fold := marshal(t, countProg(countFold(0), lang.C(20*1448)))
	vector := marshal(t, lang.NewProgram().MeasureVector(lang.FieldRTT).WaitRtts(1).Report().MustBuild())
	for _, tc := range []struct {
		name string
		cfg  datapath.Config
		then func(r *rig) // after the common script
		want []string
	}{
		{name: "default"},
		{name: "Liveness", cfg: livenessCfg(10 * time.Second), want: []string{"failsafe"}},
		{name: "SmoothCwnd", cfg: datapath.Config{SmoothCwnd: true}, want: []string{"smooth"}},
		{name: "vector program", then: func(r *rig) {
			if reason := deliver(t, r, vector); reason != "" {
				t.Fatal(reason)
			}
		}, want: []string{"vector"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, link8(), tcp.Options{}, tc.cfg)
			r.flow.Conn.Start()
			r.sim.Run(500 * time.Millisecond)
			r.dp.Deliver(&proto.SetCwnd{SID: 1, Seq: r.next(), Bytes: 40 * 1448})
			r.dp.Deliver(&proto.SetRate{SID: 1, Seq: r.next(), Bps: 1e6})
			if reason := deliver(t, r, fold); reason != "" {
				t.Fatal(reason)
			}
			r.dp.OnCongestion(r.flow.Conn, cc.EventDupAck, 1448)
			r.sim.Run(500 * time.Millisecond)
			st := r.dp.Stats()
			if st.AcksProcessed < 100 || st.ReportsSent < 2 || st.SetCwndRecvd != 1 || st.SetRateRecvd != 1 ||
				st.InstallsRecvd != 1 || st.UrgentsSent == 0 {
				t.Fatalf("the script did not do what it says: %+v", st)
			}
			if tc.then != nil {
				tc.then(r)
			}
			if got := r.dp.Features(); !slices.Equal(got, tc.want) {
				t.Fatalf("flow has feature state %v, want %v", got, tc.want)
			}
		})
	}
}

// TestStatsViewAssemblesEveryCounter: Stats() is assembled by hand from the
// counters the core and each feature keep, so a field added to Stats without
// a line in the view would read zero for ever, and a counter added without
// one would be dropped. Every field of Stats must come back as a different
// one of the numbered counters, and there must be as many of each.
func TestStatsViewAssemblesEveryCounter(t *testing.T) {
	st, counters := datapath.NumberedStats()
	v := reflect.ValueOf(st)
	if v.NumField() != counters {
		t.Fatalf("Stats has %d fields, the flow keeps %d counters", v.NumField(), counters)
	}
	seen := map[int64]string{}
	for i := 0; i < v.NumField(); i++ {
		name, n := v.Type().Field(i).Name, v.Field(i).Int()
		if n == 0 {
			t.Errorf("Stats.%s: the view does not assemble it", name)
		} else if other, dup := seen[n]; dup {
			t.Errorf("Stats.%s and Stats.%s read the same counter", name, other)
		}
		seen[n] = name
	}
}

// TestAllocsFlowFootprint builds ten thousand flows the way benchmark's
// direct50k builds fifty thousand — default Config, an unstarted tcp.Conn, a
// one-shard runtime adopting each under reno — and bounds the live heap per
// flow, so that the next hundred bytes on every flow fail here, in seconds,
// and not in a five-minute `make bench`. The log says whose the bytes are.
// (The name is for `make test-allocs`, which `make check` runs.)
func TestAllocsFlowFootprint(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap sizes are inflated under -race")
	}
	const flows = 10000
	// maxPerFlow is the measured 1,583 bytes — CCP 576 (544 by Sizeof, in
	// its size class), tcp.Conn 448, Init 210 (a 128-byte variable table, the
	// wait timer, its callback), the agent's side 349 (core.Flow, 168 by
	// Sizeof in the 176-byte class, the table entry and its map slot, reno,
	// the reply) — and 48 bytes to spare.
	const maxPerFlow = 1631

	rt, err := ccpruntime.New(ccpruntime.Config{Shards: 1, Agent: core.AgentConfig{
		Registry: algorithms.NewRegistry(), DefaultAlg: "reno",
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sim := netsim.New(1)
	toAgent := func(proto.Msg) error { return nil }
	dps := make([]*datapath.CCP, flows)
	conns := make([]*tcp.Conn, flows)

	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	last := live()
	base := last
	stage := func(owner string, build func(i int)) {
		for i := range dps {
			build(i)
		}
		now := live()
		t.Logf("%-52s %5d bytes/flow", owner, (int64(now)-int64(last))/flows)
		last = now
	}
	stage("datapath.New: CCP", func(i int) {
		dps[i] = datapath.New(datapath.Config{SID: uint32(i + 1), Clock: sim, ToAgent: toAgent})
	})
	stage("tcp.NewConn: Conn", func(i int) {
		conns[i] = tcp.NewConn(sim, netsim.FlowID(i+1), nil, dps[i], tcp.Options{})
	})
	stage("Init: variable table, wait timer and its callback", func(i int) {
		dps[i].Init(conns[i])
	})
	stage("agent: core.Flow, table entry, reno, reply", func(i int) {
		dp := dps[i]
		rt.HandleMessage(&proto.Create{SID: dp.SID(), MSS: uint32(conns[i].MSS()), InitCwnd: uint32(conns[i].Cwnd())},
			func(m proto.Msg) error { dp.Deliver(m); return nil })
	})
	if n := rt.FlowCount(); n != flows {
		t.Fatalf("agent adopted %d flows of %d", n, flows)
	}
	if st := dps[flows-1].Stats(); st.SetCwndRecvd == 0 {
		t.Fatalf("the last flow got no first decision: %+v", st)
	}
	perFlow := (int64(last) - int64(base)) / flows
	t.Logf("%-52s %5d bytes/flow (CCP %d, tcp.Conn %d, core.Flow %d by unsafe.Sizeof)", "total", perFlow,
		unsafe.Sizeof(datapath.CCP{}), unsafe.Sizeof(tcp.Conn{}), unsafe.Sizeof(core.Flow{}))
	if perFlow > maxPerFlow {
		t.Fatalf("a default-config flow keeps %d bytes live, want <= %d", perFlow, maxPerFlow)
	}
	runtime.KeepAlive(dps)
	runtime.KeepAlive(conns)
}
