package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// proc is one in-process ccp-agent: run on its own goroutine, stopped the way
// a signal stops the binary.
type proc struct {
	stop    context.CancelFunc
	exited  chan error
	serving chan *runtime.Runtime // run's serving hook delivers here
}

func start(cfg config) *proc {
	ctx, stop := context.WithCancel(context.Background())
	p := &proc{stop: stop, exited: make(chan error, 1), serving: make(chan *runtime.Runtime, 1)}
	cfg.defaultAlg = "cubic"
	cfg.serving = func(rt *runtime.Runtime) { p.serving <- rt }
	go func() { p.exited <- run(ctx, cfg) }()
	return p
}

// kill stops the process and waits for run to return, which it must do
// cleanly and with its socket removed.
func (p *proc) kill(t *testing.T, sock string) {
	t.Helper()
	p.stop()
	select {
	case err := <-p.exited:
		if err != nil {
			t.Fatalf("run returned %v after a stop", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after a stop")
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Fatalf("socket %s left behind (stat: %v)", sock, err)
	}
}

// TestStandbyTakesOverOnTheShippedPath runs the HA pair exactly as two
// ccp-agent processes would — run twice, a primary with -replicate and a
// -standby — with two flows attached over the real Unix socket. When the
// primary is stopped the standby must promote what was replicated to it into
// its runtime (sharded when the process has more than one core to use, inline
// with one: both are exercised), adopt the datapaths' resyncs rather than
// cold-start the flows, and answer their next reports.
//
// Installs cross by reference on this path, so two more things are held:
// what is replicated is always the whole program, never a reference to an
// Install the standby did not see; and the promoted agent, whose datapaths
// still hold the epoch of an Install the primary sent, installs whole before
// it refers to anything — no reference is refused, before or after.
func TestStandbyTakesOverOnTheShippedPath(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
			dir := t.TempDir()
			primarySock, standbySock := filepath.Join(dir, "primary.sock"), filepath.Join(dir, "standby.sock")
			deadline := time.Now().Add(60 * time.Second)
			wait := func(what string, cond func() bool) {
				t.Helper()
				for !cond() {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
					time.Sleep(time.Millisecond)
				}
			}

			standby := start(config{listen: standbySock, standby: true})
			wait("the standby's socket", func() bool { _, err := os.Stat(standbySock); return err == nil })
			primary := start(config{listen: primarySock, replicateTo: standbySock, replicateEvery: 2 * time.Millisecond})
			primaryRT := <-primary.serving
			if primaryRT.Shards() != procs {
				t.Fatalf("primary runs %d shards under GOMAXPROCS=%d", primaryRT.Shards(), procs)
			}

			// A datapath reaches whichever agent is up, the primary for choice.
			link := harness.NewSocketLink(harness.SocketLinkConfig{
				Dial: func() (ipc.Transport, error) {
					if tr, err := ipc.DialUnix(primarySock); err == nil {
						return tr, nil
					}
					return ipc.DialUnix(standbySock)
				},
				BackoffBase: 2 * time.Millisecond,
				BackoffMax:  20 * time.Millisecond,
				Logf:        t.Logf,
			})
			defer link.Close()
			wait("the link", link.Connected)
			link.Pump() // the connect's resync pass, while there is no flow to replay

			sim := netsim.New(1)
			fwd, rev := netsim.NewDemux(), netsim.NewDemux()
			bottleneck := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
			path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: bottleneck}, fwd, rev)
			var dps []*datapath.CCP
			for sid := uint32(1); sid <= 2; sid++ { // one flow per shard when there are two
				dp := datapath.New(datapath.Config{SID: sid, Alg: "cubic", Clock: sim, ToAgent: link.ToAgent})
				link.Attach(dp)
				tcp.NewFlow(sim, netsim.FlowID(sid), path, fwd, rev, dp, tcp.Options{}).Conn.Start()
				dps = append(dps, dp)
			}
			advance := func() {
				sim.Run(sim.Now() + 5*time.Millisecond)
				link.Pump()
				time.Sleep(100 * time.Microsecond)
			}
			installs := func() (n int) {
				for _, dp := range dps {
					n += dp.Stats().InstallsRecvd
				}
				return n
			}

			// Phase 1: both flows under the primary, long enough for their state
			// to have been replicated many times over.
			replicated := time.Now().Add(100 * time.Millisecond)
			wait("reports answered by the primary", func() bool {
				advance()
				st := primaryRT.Stats().Agent
				return st.FlowsCreated == 2 && st.Measurements >= 20 && time.Now().After(replicated)
			})

			if n := primaryRT.Stats().Agent.InstallsByRef; n == 0 {
				t.Fatal("the primary sent no Install by reference: the snapshot check below would hold of anything")
			}
			snaps, err := primaryRT.SnapshotInto(true, func(snap *proto.Snapshot) error {
				if p, err := lang.UnmarshalProgram(snap.Prog); err != nil || p.Measure.Mode != lang.MeasureFold {
					t.Errorf("flow %d is replicated as %v (%v), want its whole fold program", snap.SID, p, err)
				}
				return nil
			})
			if err != nil || snaps != 2 {
				t.Fatalf("snapshot pass over the primary: %d flows, %v", snaps, err)
			}
			wholeInstalls := func() (n int) {
				for _, dp := range dps {
					n += dp.Stats().InstallsRecvd - dp.Stats().InstallsByRef
				}
				return n
			}
			wholeBefore := wholeInstalls()

			// Phase 2: the primary goes away. Its replication stream drops with
			// it, which is the standby's cue.
			primary.kill(t, primarySock)
			var promoted *runtime.Runtime
			select {
			case promoted = <-standby.serving:
			case <-time.After(10 * time.Second):
				t.Fatal("standby never promoted")
			}
			if promoted.Shards() != procs {
				t.Fatalf("promoted standby runs %d shards under GOMAXPROCS=%d", promoted.Shards(), procs)
			}
			if st := promoted.Stats().Agent; st.Restores != 2 {
				t.Fatalf("promoted with %d flows restored, want 2: %+v", st.Restores, st)
			}

			// Phase 3: the link redials on its own, replays both Creates, and the
			// promoted agent adopts them and takes the flows' reports from there.
			before := installs()
			wait("the promoted standby to answer", func() bool {
				advance()
				st := promoted.Stats().Agent
				return st.ResyncAdopts >= 2 && st.Measurements >= 20 && installs() >= before+20
			})
			standby.kill(t, standbySock)
			st := promoted.Stats()
			if st.Agent.FlowsCreated != 0 || st.Agent.UnknownFlowMsg != 0 || st.DecodeErrors != 0 {
				t.Fatalf("promoted standby cold-started or lost a flow: %+v", st)
			}
			if ls := link.Stats(); ls.Connects != 2 || ls.Resyncs != 2 {
				t.Fatalf("link stats %+v: want one reconnect replaying two flows", ls)
			}
			// Each flow took the promoted agent's first Install whole, and every
			// reference since named it: a reference to anything the primary had
			// installed would have been refused.
			if got := wholeInstalls(); got < wholeBefore+2 || st.Agent.InstallsByRef == 0 {
				t.Fatalf("%d whole installs after failover, %d before; the promoted agent sent %d by reference",
					got, wholeBefore, st.Agent.InstallsByRef)
			}
			for _, dp := range dps {
				if ds := dp.Stats(); ds.RefRefusals != 0 || ds.InstallRejects != 0 || st.Agent.InstallErrs != 0 {
					t.Fatalf("flow %d refused an install across the failover: %+v", dp.SID(), ds)
				}
			}
		})
	}
}
