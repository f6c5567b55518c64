package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	stdruntime "runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/harness"
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
// cleanly, leaving nothing beside the socket's path.
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
	assertNothingBeside(t, sock)
}

// assertNothingBeside fails unless the socket at sock, and every ring name
// beside it, is gone.
func assertNothingBeside(t *testing.T, sock string) {
	t.Helper()
	if left, _ := filepath.Glob(sock + "*"); len(left) != 0 {
		t.Fatalf("left behind at the socket's path: %v", left)
	}
}

// assertOnlySocket fails if anything but the socket is beside its path, or a
// ring file not in before has a name. Other test binaries' rings are named for
// an instant inside shmring.Create, so a new ring file is given a second to go.
func assertOnlySocket(t *testing.T, sock string, before map[string]bool) {
	t.Helper()
	if beside, _ := filepath.Glob(sock + "*"); !slices.Equal(beside, []string{sock}) {
		t.Fatalf("beside the socket: %v, want only the socket", beside)
	}
	var added []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		added = added[:0]
		for n := range ringFiles(t) {
			if !before[n] {
				added = append(added, n)
			}
		}
		if len(added) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(added) != 0 {
		t.Fatalf("ring files named: %v", added)
	}
}

// ringFiles lists the ring files that have a name: shmring makes them in
// /dev/shm (the temporary directory off Linux) as ccp-ring-*.
func ringFiles(t *testing.T) map[string]bool {
	dir := os.TempDir()
	if stdruntime.GOOS == "linux" {
		dir = "/dev/shm"
	}
	names, err := filepath.Glob(filepath.Join(dir, "ccp-ring-*"))
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// dialer is a SocketLink's Dial for the first of paths that answers.
func dialer(paths ...string) func() (*net.UnixConn, error) {
	return func() (conn *net.UnixConn, err error) {
		for _, p := range paths {
			if conn, err = net.DialUnix("unix", nil, &net.UnixAddr{Name: p, Net: "unix"}); err == nil {
				return conn, nil
			}
		}
		return nil, err
	}
}

// TestStandbyTakesOverOnTheShippedPath runs the HA pair exactly as two
// ccp-agent processes would — run twice, a primary with -replicate and a
// -standby — with two flows attached over the real Unix socket and the rings
// it hands out. When the
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
			// The socket's file exists from bind, before listen: a dial is the
			// proof the standby takes connections, or the primary's first
			// replication dial can be refused and retried only after a second,
			// by when this test has killed it. The standby reads the probe as
			// an empty replication stream and goes on waiting.
			wait("the standby's socket", func() bool {
				c, err := net.Dial("unix", standbySock)
				if err == nil {
					c.Close()
				}
				return err == nil
			})
			primary := start(config{listen: primarySock, replicateTo: standbySock, replicateEvery: 2 * time.Millisecond})
			primaryRT := <-primary.serving
			if primaryRT.Shards() != procs {
				t.Fatalf("primary runs %d shards under GOMAXPROCS=%d", primaryRT.Shards(), procs)
			}

			// A datapath reaches whichever agent is up, the primary for choice.
			link := harness.NewSocketLink(harness.SocketLinkConfig{
				Dial: dialer(primarySock, standbySock),
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
			// The snapshots carried each flow's epoch: the first report after
			// the failover, and every one since, named the program that folded it.
			if st.Agent.UnknownEpochs != 0 || st.Agent.Errors != 0 {
				t.Fatalf("promoted standby could not name a report: %+v", st.Agent)
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

// TestMain runs the agent instead of the tests when a test re-executes this
// binary as a ccp-agent process (`<binary> -listen <path> ...`), so a test
// can kill a real agent process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-listen" {
		main()
		return
	}
	os.Exit(m.Run())
}

// agentProcess starts this test binary as a ccp-agent process listening on
// sock. Its log goes to the test's.
func agentProcess(t *testing.T, sock string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-listen", sock, "-default-alg", "cubic")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// TestAgentSurvivesSIGKILLAcrossProcesses is the crash path of DESIGN §11 on
// the shipped binary: a datapath (a SocketLink) meets a ccp-agent process on
// its socket and takes a ring from it, and the agent is then killed with
// SIGKILL, so nothing of its own shutdown runs. The link must notice from the
// socket's EOF and report the agent gone; the ring must have no name, before
// the kill or after it: nothing beside the socket but the socket, and no ring
// file in the ring directory; and a new agent at the same -listen must start
// over the dead one's socket and re-adopt the flow from the link's replayed
// Create. An orderly stop of the second agent then leaves nothing beside the
// path.
func TestAgentSurvivesSIGKILLAcrossProcesses(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "agent.sock")
	rings := ringFiles(t)
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

	first := agentProcess(t, sock)
	link := harness.NewSocketLink(harness.SocketLinkConfig{Dial: dialer(sock)})
	defer link.Close()
	wait("the link to the first agent", link.Connected)
	link.Pump() // the connect's resync pass, while there is no flow to replay

	sim := netsim.New(1)
	fwd, rev := netsim.NewDemux(), netsim.NewDemux()
	bottleneck := netsim.LinkConfig{RateBps: 48e6, Delay: 5 * time.Millisecond, QueueBytes: 60000}
	path := netsim.NewPath(sim, netsim.PathConfig{Bottleneck: bottleneck}, fwd, rev)
	dp := datapath.New(datapath.Config{
		SID:             1,
		Alg:             "cubic",
		Clock:           sim,
		ToAgent:         link.ToAgent,
		StalenessBudget: 200 * time.Millisecond,
	})
	link.Attach(dp)
	tcp.NewFlow(sim, 1, path, fwd, rev, dp, tcp.Options{}).Conn.Start()
	advance := func() bool {
		sim.Run(sim.Now() + 5*time.Millisecond)
		link.Pump()
		time.Sleep(100 * time.Microsecond)
		return false
	}
	installs := func() int { return dp.Stats().InstallsRecvd }
	wait("the first agent's installs", func() bool { return advance() || installs() >= 10 })

	assertOnlySocket(t, sock, rings)

	if err := first.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	first.Wait()
	wait("the link to report the agent gone", func() bool {
		return advance() || dp.Stats().AgentGoneSignals > 0
	})
	if link.Connected() || !dp.FallbackActive() {
		t.Fatalf("after the kill: link connected %v, fallback %v", link.Connected(), dp.FallbackActive())
	}
	assertOnlySocket(t, sock, rings)

	second := agentProcess(t, sock)
	before := installs()
	wait("the second agent to re-adopt the flow", func() bool {
		return advance() || (link.Stats().Connects == 2 && installs() >= before+10 && !dp.FallbackActive())
	})
	if st := link.Stats(); st.Resyncs != 1 || st.DecodeErrors != 0 || st.UnknownSID != 0 {
		t.Fatalf("link stats %+v: want one replayed Create and clean frames", st)
	}
	if ds := dp.Stats(); ds.InstallRejects != 0 || ds.RefRefusals != 0 {
		t.Fatalf("a refused install across the restart: %+v", ds)
	}

	if err := second.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(); err != nil {
		t.Fatalf("the second agent's orderly stop: %v", err)
	}
	assertNothingBeside(t, sock)
}

// TestListenRefusesWhatItDoesNotOwn pins -listen's claim: the agent deletes
// neither a file that is not a socket nor a live agent's socket. A second
// agent on a live agent's path used to take it over, and the first agent's
// exit then unlinked the second's socket, leaving it unreachable.
func TestListenRefusesWhatItDoesNotOwn(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "notes")
	if err := os.WriteFile(file, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), config{listen: file, defaultAlg: "cubic"}); err == nil {
		t.Fatal("the agent listened over a regular file")
	}
	if b, err := os.ReadFile(file); err != nil || string(b) != "keep" {
		t.Fatalf("the regular file at -listen: %q, %v", b, err)
	}

	sock := filepath.Join(dir, "agent.sock")
	first := start(config{listen: sock})
	<-first.serving
	if err := run(context.Background(), config{listen: sock, defaultAlg: "cubic"}); err == nil {
		t.Fatal("a second agent took over a live agent's socket")
	}
	// The first agent still meets datapaths at its path.
	link := harness.NewSocketLink(harness.SocketLinkConfig{Dial: dialer(sock)})
	deadline := time.Now().Add(10 * time.Second)
	for !link.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("the first agent is unreachable after the refused takeover")
		}
		time.Sleep(time.Millisecond)
	}
	link.Close()
	first.kill(t, sock)
}
