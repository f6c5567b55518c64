// Command ipcbench reproduces Figure 2's measurement directly: the
// round-trip time of a small message between two *separate processes* over
// the shared-memory ring transport and Unix domain sockets, under an idle
// and a busy CPU.
//
// It forks itself as the echo-server process (true two-process IPC, like the
// paper's agent↔datapath split) and prints percentile rows plus a CDF. The
// goroutine-peer variant of the measurement is `ccp-sim -experiment fig2`.
//
// Usage:
//
//	ipcbench                        # all transports, idle + busy
//	ipcbench -transport shmring -samples 60000
//	ipcbench -cdf > cdf.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/stats"
)

func main() {
	var (
		serveFlag = flag.String("serve", "", "internal: run as echo server on this socket/ring path")
		serveMode = flag.String("serve-mode", "", "internal: transport for -serve (unix|unixgram|shmring)")
		peer      = flag.String("peer", "", "internal: peer path for unixgram serve")

		transport = flag.String("transport", "all", "shmring | unix | unixgram | all")
		samples   = flag.Int("samples", 60000, "round trips per condition")
		warmup    = flag.Int("warmup", 500, "discarded warmup round trips")
		payload   = flag.Int("payload", 64, "message payload bytes")
		cdfOut    = flag.Bool("cdf", false, "emit CSV CDF rows instead of a table")
	)
	flag.Parse()

	if *serveFlag != "" {
		runServer(*serveMode, *serveFlag, *peer)
		return
	}

	transports := []string{"shmring", "unixgram", "unix"}
	if *transport != "all" {
		transports = []string{*transport}
	}
	if *cdfOut {
		fmt.Println("transport,cpu,rtt_us,cdf")
	} else {
		fmt.Printf("Figure 2 (measured): IPC RTT between two processes, %d samples\n", *samples)
		fmt.Printf("%-10s %-6s %10s %10s %10s %10s %10s\n", "transport", "cpu", "p10", "p50", "p90", "p99", "p99.9")
	}
	for _, tr := range transports {
		for _, busy := range []bool{false, true} {
			s, err := measure(tr, *samples, *warmup, *payload, busy)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ipcbench: %s busy=%v: %v\n", tr, busy, err)
				os.Exit(1)
			}
			cpu := "idle"
			if busy {
				cpu = "busy"
			}
			if *cdfOut {
				for _, p := range s.CDF(200) {
					fmt.Printf("%s,%s,%.3f,%.4f\n", tr, cpu, p.X/1000, p.F)
				}
			} else {
				fmt.Printf("%-10s %-6s %10v %10v %10v %10v %10v\n", tr, cpu,
					time.Duration(s.Percentile(10)), time.Duration(s.Percentile(50)),
					time.Duration(s.Percentile(90)), time.Duration(s.Percentile(99)),
					time.Duration(s.Percentile(99.9)))
			}
		}
	}
}

func measure(transport string, samples, warmup, payload int, busy bool) (*stats.Samples, error) {
	client, cleanup, err := setup(transport)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if busy {
		stop := ipc.BusyLoad(0)
		defer stop()
		time.Sleep(50 * time.Millisecond)
	}
	return ipc.MeasureRTT(client, samples, warmup, payload)
}

// setup builds the echo peer (a child process) and the client.
func setup(transport string) (ipc.Transport, func(), error) {
	dir, err := os.MkdirTemp("", "ipcbench-*")
	if err != nil {
		return nil, nil, err
	}
	cleanupDir := func() { os.RemoveAll(dir) }

	switch transport {
	case "shmring":
		// The benchmark side Creates the ring file so it exists before the
		// echo peer Opens it; the ring itself
		// buffers any sends that race the peer's startup.
		ringPath := filepath.Join(dir, "ring")
		client, err := shmring.Create(ringPath, shmring.Options{})
		if err != nil {
			cleanupDir()
			return nil, nil, err
		}
		stopServer, err := forkServer("shmring", ringPath, "")
		if err != nil {
			client.Close()
			cleanupDir()
			return nil, nil, err
		}
		return client, func() { client.Close(); stopServer(); cleanupDir() }, nil

	case "unix":
		path := filepath.Join(dir, "echo.sock")
		stopServer, err := forkServer("unix", path, "")
		if err != nil {
			cleanupDir()
			return nil, nil, err
		}
		client, err := dialRetry(func() (ipc.Transport, error) { return ipc.DialUnix(path) })
		if err != nil {
			stopServer()
			cleanupDir()
			return nil, nil, err
		}
		return client, func() { client.Close(); stopServer(); cleanupDir() }, nil

	case "unixgram":
		serverPath := filepath.Join(dir, "server.sock")
		clientPath := filepath.Join(dir, "client.sock")
		stopServer, err := forkServer("unixgram", serverPath, clientPath)
		if err != nil {
			cleanupDir()
			return nil, nil, err
		}
		client, err := dialRetry(func() (ipc.Transport, error) {
			// The client can bind before the server exists; Sends fail
			// until the server socket appears, so probe with a send.
			t, err := ipc.BindDgram(clientPath, serverPath)
			if err != nil {
				return nil, err
			}
			if err := t.Send([]byte{0}); err != nil {
				t.Close()
				os.Remove(clientPath)
				return nil, err
			}
			t.Recv() // drain the probe echo
			return t, nil
		})
		if err != nil {
			stopServer()
			cleanupDir()
			return nil, nil, err
		}
		return client, func() { client.Close(); stopServer(); cleanupDir() }, nil

	default:
		cleanupDir()
		return nil, nil, fmt.Errorf("unknown transport %q", transport)
	}
}

// forkServer re-executes this binary as the echo server and returns what
// kills and reaps it.
func forkServer(mode, path, peer string) (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve", path, "-serve-mode", mode, "-peer", peer)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() { cmd.Process.Kill(); cmd.Wait() }, nil
}

// dialRetry retries connection setup while the server process starts up.
func dialRetry(dial func() (ipc.Transport, error)) (ipc.Transport, error) {
	var lastErr error
	for i := 0; i < 100; i++ {
		t, err := dial()
		if err == nil {
			return t, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("server did not come up: %w", lastErr)
}

// runServer is the child-process echo loop.
func runServer(mode, path, peer string) {
	switch mode {
	case "shmring":
		// The parent Creates the ring before forking, so Open should
		// succeed immediately; retry briefly anyway in case the fork won
		// a race with the file becoming visible.
		var ep ipc.Transport
		for i := 0; ; i++ {
			t, err := shmring.Open(path, shmring.Options{})
			if err == nil {
				ep = t
				break
			}
			if i >= 100 {
				fmt.Fprintf(os.Stderr, "ipcbench server: %v\n", err)
				os.Exit(1)
			}
			time.Sleep(10 * time.Millisecond)
		}
		ipc.Echo(ep)
	case "unix":
		ln, err := ipc.ListenUnix(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipcbench server: %v\n", err)
			os.Exit(1)
		}
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go ipc.Echo(ipc.NewStream(conn))
		}
	case "unixgram":
		t, err := ipc.BindDgram(path, peer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipcbench server: %v\n", err)
			os.Exit(1)
		}
		ipc.Echo(t)
	default:
		fmt.Fprintf(os.Stderr, "ipcbench server: bad mode %q\n", mode)
		os.Exit(1)
	}
}
