package harness_test

import (
	"path/filepath"
	stdruntime "runtime"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// BenchmarkShippedLoop times one flow's report → decision round trip on the
// path ccp-agent ships: the report leaves a datapath through a SocketLink,
// reaches a Runtime served by Serve (GOMAXPROCS shards, as ccp-agent runs
// it), and the decision Reno answers it with comes back to the datapath
// through Pump. The datapath side spins on Pump, yielding, until it lands.
func BenchmarkShippedLoop(b *testing.B) {
	sockPath := filepath.Join(b.TempDir(), "ccp.sock")
	rt, err := runtime.New(runtime.Config{
		Shards: stdruntime.GOMAXPROCS(0),
		Agent:  core.AgentConfig{Registry: algorithms.NewRegistry(), DefaultAlg: "reno"},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	ln, err := ipc.ListenUnix(sockPath)
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- rt.Serve(ln) }()
	defer func() { ln.Close(); <-served }()

	link := harness.NewSocketLink(harness.SocketLinkConfig{
		Dial: dial(sockPath),
	})
	defer link.Close()
	for !link.Connected() {
		time.Sleep(time.Millisecond)
	}
	link.Pump() // the connect's resync pass, while there is no flow to replay

	sim := netsim.New(1)
	dp := datapath.New(datapath.Config{SID: 1, Alg: "reno", Clock: sim, ToAgent: link.ToAgent})
	link.Attach(dp)
	dp.Init(tcp.NewConn(sim, 1, nil, dp, tcp.Options{MSS: 1448})) // sends the Create
	decisions := func() int {
		st := dp.Stats()
		return st.InstallsRecvd + st.SetCwndRecvd + st.SetRateRecvd
	}
	await := func(n int) {
		for decisions() < n {
			link.Pump()
			stdruntime.Gosched()
		}
	}
	await(1) // the Install answering the Create
	m := &proto.Measurement{SID: 1, Fields: []float64{0.01, 1e6, 1e6, 14480, 0, 0, 0.01}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq++
		want := decisions() + 1
		if err := link.ToAgent(m); err != nil {
			b.Fatal(err)
		}
		await(want)
	}
}
