package runtime_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// TestServeRingsJoinAndLeave has datapaths join and leave the set Serve
// serves while others are mid-stream: each of eight meets the agent on its
// socket several times over, takes a ring, runs one flow's Create and
// reports through it, reads every reply back, and leaves — half the time
// closing its ring first, half the time only hanging up, as a crashed
// datapath does. Every reply must reach the ring of the flow it answers,
// every frame must be dispatched exactly once (a frame the serve loop failed
// to release would stall its ring and lose what followed), and no ring may
// ever have a name: while datapaths are connected nothing is beside the
// socket's path but the socket, the memory each receives has no name, and
// the ring directory gains no ring file.
func TestServeRingsJoinAndLeave(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const datapaths, visits, reports = 8, 3, 20
			sock := filepath.Join(t.TempDir(), "agent.sock")
			before := ringFiles(t)
			rt, err := runtime.New(runtime.Config{Shards: shards, Agent: agentCfg(nil)})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			ln, err := ipc.ListenUnix(sock)
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- rt.Serve(ln) }()

			var wg sync.WaitGroup
			for d := 0; d < datapaths; d++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for v := 0; v < visits; v++ {
						if err := visit(sock, uint32(100*d+v+1), reports, v%2 == 0); err != nil {
							t.Errorf("datapath %d, visit %d: %v", d, v, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			checkNoNewRingFiles(t, before)
			ln.Close()
			if err := <-served; err != nil {
				t.Fatalf("Serve returned %v after its listener closed", err)
			}
			if left, _ := filepath.Glob(sock + "*"); len(left) != 0 {
				t.Fatalf("left beside the socket after an orderly stop: %v", left)
			}
			st := rt.Stats()
			const flows = datapaths * visits
			if st.Dispatched != flows*(reports+2) || st.DecodeErrors != 0 || st.ShutdownDropped != 0 {
				t.Fatalf("dispatched %d frames of %d: %+v", st.Dispatched, flows*(reports+2), st)
			}
			if st.Agent.FlowsCreated != flows || st.Agent.Measurements != flows*reports || st.Agent.FlowsClosed != flows {
				t.Fatalf("agent saw %d flows, %d reports and %d closes, want %d, %d and %d",
					st.Agent.FlowsCreated, st.Agent.Measurements, st.Agent.FlowsClosed, flows, flows*reports, flows)
			}
		})
	}
}

// TestServeLeaksNoDescriptors runs a few dozen rendezvous through Serve —
// datapaths that stay for a flow, datapaths that hang up before reading, and
// a SocketLink whose every Open refuses the ring it is handed — and checks
// that once Serve has stopped the process holds no more descriptors than
// before: each end closes the ring file it was handed or made, on every path.
func TestServeLeaksNoDescriptors(t *testing.T) {
	if stdruntime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	sock, proxySock := filepath.Join(dir, "agent.sock"), filepath.Join(dir, "proxy.sock")
	rt, err := runtime.New(runtime.Config{Shards: 2, Agent: agentCfg(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// The network poller's own descriptors stay for the life of the process:
	// start it before the count.
	if warm, err := ipc.ListenUnix(filepath.Join(dir, "warm.sock")); err == nil {
		warm.Close()
	}
	before := openFDs()

	ln, err := ipc.ListenUnix(sock)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- rt.Serve(ln) }()
	for i := 0; i < 24; i++ {
		if i%3 == 0 {
			conn, err := dialAgent(sock)
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			continue
		}
		if err := visit(sock, uint32(i+1), 2, true); err != nil {
			t.Fatal(err)
		}
	}

	// The proxy meets the agent for the link and hands the link the agent's
	// ring with its magic zeroed, until the link hangs up.
	proxy, err := ipc.ListenUnix(proxySock)
	if err != nil {
		t.Fatal(err)
	}
	refused := make(chan struct{}, 64)
	proxied := make(chan struct{})
	go func() {
		defer close(proxied)
		for {
			link, err := proxy.AcceptUnix()
			if err != nil {
				return
			}
			if agent, err := dialAgent(sock); err == nil {
				if name, f, err := takeRing(agent); err == nil {
					if _, err := f.WriteAt(make([]byte, 8), 0); err != nil {
						t.Error(err)
					}
					link.WriteMsgUnix([]byte(name), syscall.UnixRights(int(f.Fd())), nil)
					f.Close()
					link.Read(make([]byte, 1))
					refused <- struct{}{}
				}
				agent.Close()
			}
			link.Close()
		}
	}()
	sl := harness.NewSocketLink(harness.SocketLinkConfig{
		Dial: func() (*net.UnixConn, error) { return dialAgent(proxySock) },
	})
	for i := 0; i < 4; i++ {
		select {
		case <-refused:
		case <-time.After(10 * time.Second):
			t.Fatal("the link stopped redialing")
		}
	}
	sl.Close()
	proxy.Close()
	<-proxied
	if n := sl.Stats().Connects; n != 0 {
		t.Fatalf("the link connected %d times over corrupt rings", n)
	}

	ln.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); openFDs() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open after Serve stopped, %d before it started", openFDs(), before)
		}
	}
}

// BenchmarkServeRendezvous times what ./benchmark does not: a datapath
// meeting Serve, from the dial to a mapped ring and one frame echoed (a
// flow's Create and the agent's reply), then leaving.
func BenchmarkServeRendezvous(b *testing.B) {
	sock := filepath.Join(b.TempDir(), "agent.sock")
	rt, err := runtime.New(runtime.Config{Shards: 1, Agent: agentCfg(nil)})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	ln, err := ipc.ListenUnix(sock)
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- rt.Serve(ln) }()
	defer func() { ln.Close(); <-served }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sid := uint32(i + 1)
		conn, err := dialAgent(sock)
		if err != nil {
			b.Fatal(err)
		}
		name, f, err := takeRing(conn)
		if err != nil {
			b.Fatal(err)
		}
		ring, err := shmring.Open(f, name, shmring.Options{})
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []proto.Msg{&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480}, &proto.Close{SID: sid}} {
			data, err := proto.Marshal(m)
			if err == nil {
				err = ring.Send(data)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if _, err := ring.Recv(); err != nil {
			b.Fatal(err)
		}
		ring.Close()
		conn.Close()
	}
}

// visit is one datapath's stay with the agent at sock: it takes a ring, runs
// flow sid's Create, reports and Close through it, and reads back the reply to
// each Create and report. closeRing says whether it closes its ring before
// hanging up. While it holds the ring it checks that the ring has no name:
// not the memory it received, and nothing beside the socket.
func visit(sock string, sid uint32, reports int, closeRing bool) error {
	conn, err := dialAgent(sock)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	name, f, err := takeRing(conn)
	if err != nil {
		return err
	}
	defer f.Close()
	ring, err := shmring.Open(f, name, shmring.Options{})
	if err != nil {
		return err
	}
	if closeRing {
		defer ring.Close()
	}
	if st, err := f.Stat(); err != nil || st.Sys().(*syscall.Stat_t).Nlink != 0 {
		return fmt.Errorf("the ring's memory has a name (stat: %+v, %v)", st, err)
	}
	if beside, _ := filepath.Glob(sock + "*"); !slices.Equal(beside, []string{sock}) {
		return fmt.Errorf("beside the socket while a datapath is connected: %v", beside)
	}
	msgs := []proto.Msg{&proto.Create{SID: sid, MSS: 1448, InitCwnd: 14480}}
	for seq := 1; seq <= reports; seq++ {
		msgs = append(msgs, &proto.Measurement{SID: sid, Seq: uint32(seq), Fields: []float64{float64(seq), 0, 0, 0, 0, 0, 0}})
	}
	msgs = append(msgs, &proto.Close{SID: sid})
	for _, m := range msgs {
		data, err := proto.Marshal(m)
		if err != nil {
			return err
		}
		if err := ring.Send(data); err != nil {
			return err
		}
	}
	for n := 0; n < 1+reports; n++ {
		data, err := ring.Recv()
		if err != nil {
			return fmt.Errorf("reply %d: %w", n, err)
		}
		m, err := proto.Unmarshal(data)
		if err != nil {
			return fmt.Errorf("reply %d: %w", n, err)
		}
		if m.FlowSID() != sid {
			return fmt.Errorf("reply %d is for flow %d, on flow %d's ring", n, m.FlowSID(), sid)
		}
	}
	return nil
}

func dialAgent(sock string) (*net.UnixConn, error) {
	return net.DialUnix("unix", nil, &net.UnixAddr{Name: sock, Net: "unix"})
}

// takeRing is the datapath's end of the rendezvous by hand, as SocketLink
// does it: one message from the agent carrying a ring's name and its memory
// as a descriptor.
func takeRing(conn *net.UnixConn) (string, *os.File, error) {
	name := make([]byte, 4096)
	oob := make([]byte, syscall.CmsgSpace(4))
	n, oobn, _, _, err := conn.ReadMsgUnix(name, oob)
	if err != nil {
		return "", nil, err
	}
	cmsgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil || len(cmsgs) != 1 {
		return "", nil, fmt.Errorf("rendezvous carried %d control messages (%v)", len(cmsgs), err)
	}
	fds, err := syscall.ParseUnixRights(&cmsgs[0])
	if err != nil || len(fds) != 1 {
		return "", nil, fmt.Errorf("rendezvous carried %d descriptors (%v)", len(fds), err)
	}
	return string(name[:n]), os.NewFile(uintptr(fds[0]), string(name[:n])), nil
}

// ringFiles lists the ring files that have a name: shmring makes them in
// /dev/shm (the temporary directory off Linux) as ccp-ring-*, and names them
// only inside Create.
func ringFiles(t testing.TB) map[string]bool {
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

// checkNoNewRingFiles fails if a ring file not in before has a name. Other
// test binaries' rings are named for an instant inside Create, so a new name
// is given a second to go.
func checkNoNewRingFiles(t testing.TB, before map[string]bool) {
	t.Helper()
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
