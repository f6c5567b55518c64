package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/stats"
)

// Fig2Config parameterizes the Figure 2 reproduction: the CDF of IPC
// round-trip times between the agent and datapath processes, with an idle
// and a heavily loaded CPU. The paper measured Netlink (kernel↔user) and
// Unix domain sockets; Netlink requires a kernel module we cannot load, so
// we measure Unix *datagram* sockets (the closest stdlib analog of
// Netlink's datagram semantics) alongside Unix stream sockets, plus the
// in-process channel transport as a floor. These are real measurements,
// not simulations.
type Fig2Config struct {
	// Samples per condition (paper: 60,000; default lower for test speed).
	Samples int
	// Warmup round trips discarded per condition.
	Warmup int
	// PayloadBytes per message (default 64, a small control message).
	PayloadBytes int
	// BusyWorkers for the loaded condition (default GOMAXPROCS).
	BusyWorkers int
}

func (c Fig2Config) withDefaults() Fig2Config {
	if c.Samples == 0 {
		c.Samples = 60000
	}
	if c.Warmup == 0 {
		c.Warmup = 200
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 64
	}
	return c
}

// Fig2Series is one CDF line of the figure.
type Fig2Series struct {
	Transport string // "unixgram" (netlink substitute), "unix-stream", "chan"
	Busy      bool
	Samples   *stats.Samples // RTTs in nanoseconds
}

// P returns the p-th percentile as a duration.
func (s Fig2Series) P(p float64) time.Duration {
	return time.Duration(s.Samples.Percentile(p))
}

// Fig2Result carries all measured series.
type Fig2Result struct {
	Config Fig2Config
	Series []Fig2Series
}

// Fig2 measures all transports under both CPU conditions.
func Fig2(cfg Fig2Config) (Fig2Result, error) {
	cfg = cfg.withDefaults()
	res := Fig2Result{Config: cfg}
	for _, busy := range []bool{false, true} {
		for _, transport := range []string{"shmring", "unixgram", "unix-stream", "chan"} {
			s, err := fig2Measure(cfg, transport, busy)
			if err != nil {
				return res, fmt.Errorf("fig2 %s busy=%v: %w", transport, busy, err)
			}
			res.Series = append(res.Series, Fig2Series{Transport: transport, Busy: busy, Samples: s})
		}
	}
	return res, nil
}

func fig2Measure(cfg Fig2Config, transport string, busy bool) (*stats.Samples, error) {
	client, cleanup, err := fig2Transport(transport)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if busy {
		stop := ipc.BusyLoad(cfg.BusyWorkers)
		defer stop()
		// Give the load a moment to spread across cores.
		time.Sleep(20 * time.Millisecond) //lint:ownership benchmark warmup: lets BusyLoad spread across cores before measuring
	}
	return ipc.MeasureRTT(client, cfg.Samples, cfg.Warmup, cfg.PayloadBytes)
}

// fig2Transport builds an echo server and client for the named transport.
func fig2Transport(transport string) (ipc.Transport, func(), error) {
	switch transport {
	case "chan":
		a, b := ipc.ChanPair(1)
		go ipc.Echo(b) //lint:ownership echo server for the real-IPC latency benchmark
		return a, func() { a.Close(); b.Close() }, nil
	case "shmring":
		dir, err := os.MkdirTemp("", "ccp-fig2-*")
		if err != nil {
			return nil, nil, err
		}
		a, b, err := shmring.Pair(filepath.Join(dir, "ring"), shmring.Options{}, shmring.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		go ipc.Echo(b) //lint:ownership echo server for the shared-memory ring latency benchmark
		return a, func() { a.Close(); b.Close(); os.RemoveAll(dir) }, nil
	case "unix-stream":
		dir, err := os.MkdirTemp("", "ccp-fig2-*")
		if err != nil {
			return nil, nil, err
		}
		path := filepath.Join(dir, "echo.sock")
		ln, err := ipc.ListenUnix(path)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		go func() { //lint:ownership accept loop for the unix-stream echo benchmark
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ipc.Echo(ipc.NewStream(conn))
		}()
		client, err := ipc.DialUnix(path)
		if err != nil {
			ln.Close()
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return client, func() { client.Close(); ln.Close(); os.RemoveAll(dir) }, nil
	case "unixgram":
		dir, err := os.MkdirTemp("", "ccp-fig2-*")
		if err != nil {
			return nil, nil, err
		}
		a, b, err := ipc.DgramPair(filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock"))
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		go ipc.Echo(b) //lint:ownership echo server for the unixgram latency benchmark
		return a, func() { a.Close(); b.Close(); os.RemoveAll(dir) }, nil
	default:
		return nil, nil, fmt.Errorf("unknown transport %q", transport)
	}
}

// String renders percentile rows for each series (the figure's CDF reduced
// to its load-bearing quantiles).
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: IPC round-trip time CDFs (%d samples per condition)\n", r.Config.Samples)
	b.WriteString("  (paper, idle: p99 48µs netlink / 80µs unix; busy+TurboBoost: 18µs / 35µs)\n")
	b.WriteString("  netlink is substituted by unixgram (same datagram semantics; see DESIGN.md)\n\n")
	fmt.Fprintf(&b, "  %-14s %-6s %10s %10s %10s %10s %10s\n",
		"transport", "cpu", "p10", "p50", "p90", "p99", "p99.9")
	for _, s := range r.Series {
		cpu := "idle"
		if s.Busy {
			cpu = "busy"
		}
		fmt.Fprintf(&b, "  %-14s %-6s %10v %10v %10v %10v %10v\n",
			s.Transport, cpu, s.P(10), s.P(50), s.P(90), s.P(99), s.P(99.9))
	}
	return b.String()
}
