// Command ccp-agent is the stand-alone user-space congestion control plane
// of Figure 1: it listens on a Unix socket, speaks the CCP wire protocol,
// and runs one algorithm instance per flow for any connecting datapath.
//
// Usage:
//
//	ccp-agent -listen /tmp/ccp.sock -default-alg cubic
//	ccp-agent -list-algs
//	ccp-agent -listen /tmp/ccp.sock -max-rate-mbps 100   # per-flow policy
//
// The process is one internal/runtime.Runtime handing each datapath that
// connects a shared-memory ring, all served by one loop — the executor, rings,
// serve loop and shard hop the end-to-end benchmark (./benchmark) measures.
// There is no flag for the shard count: it is GOMAXPROCS, so the agent uses
// the cores the process is given and nothing else has to agree with it: flows
// are partitioned over that many agents by SID (one with GOMAXPROCS=1), each
// run by its shard's goroutine, and the serve loop only routes and enqueues.
//
// High availability (see DESIGN.md §10): a primary replicates per-flow
// snapshots to a warm standby, which promotes itself into a live agent when
// the replication stream drops:
//
//	ccp-agent -listen /tmp/ccp-standby.sock -standby
//	ccp-agent -listen /tmp/ccp.sock -replicate /tmp/ccp-standby.sock
//
// SIGINT or SIGTERM shuts down in order: stop accepting, let the serve loop
// finish its sweep, answer what has been dispatched, then exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	stdruntime "runtime"
	"syscall"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/runtime"
	"github.com/ccp-repro/ccp/internal/supervise"
)

// config is the parsed command line.
type config struct {
	listen         string
	defaultAlg     string
	maxRateMbps    float64
	maxCwndKB      int
	verbose        bool
	standby        bool
	replicateTo    string
	replicateEvery time.Duration

	// serving, when set, is handed the runtime as it starts taking datapath
	// connections — for a standby, after promotion. Tests read its Stats.
	serving func(*runtime.Runtime)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "/tmp/ccp.sock", "Unix socket path to listen on")
	flag.StringVar(&cfg.defaultAlg, "default-alg", "cubic", "algorithm for flows that don't request one")
	flag.Float64Var(&cfg.maxRateMbps, "max-rate-mbps", 0, "per-flow max rate policy in Mbit/s (0 = none)")
	flag.IntVar(&cfg.maxCwndKB, "max-cwnd-kb", 0, "per-flow max cwnd policy in KiB (0 = none)")
	listAlgs := flag.Bool("list-algs", false, "list registered algorithms and exit")
	flag.BoolVar(&cfg.verbose, "v", false, "log per-flow activity")
	flag.BoolVar(&cfg.standby, "standby", false,
		"run as a warm standby: consume snapshot replication on the listen socket, promote when the primary's stream drops")
	flag.StringVar(&cfg.replicateTo, "replicate", "",
		"standby socket to replicate per-flow snapshots to (\"\" = no replication)")
	flag.DurationVar(&cfg.replicateEvery, "replicate-interval", 50*time.Millisecond,
		"snapshot replication period (with -replicate)")
	flag.Parse()

	if *listAlgs {
		for _, name := range algorithms.NewRegistry().Names() {
			fmt.Println(name)
		}
		return
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, cfg); err != nil {
		log.Fatalf("ccp-agent: %v", err)
	}
}

// run is the whole agent process: listen, wait out the standby phase if
// there is one, then serve datapaths until ctx is cancelled. It returns once
// the runtime has drained and every goroutine it started has ended.
func run(ctx context.Context, cfg config) error {
	agentCfg := core.AgentConfig{
		Registry:   algorithms.NewRegistry(),
		DefaultAlg: cfg.defaultAlg,
	}
	if cfg.maxRateMbps > 0 || cfg.maxCwndKB > 0 {
		agentCfg.Policy = func(core.FlowInfo) core.Policy {
			return core.Policy{
				MaxRateBps:   cfg.maxRateMbps * 1e6 / 8,
				MaxCwndBytes: cfg.maxCwndKB * 1024,
			}
		}
	}
	if cfg.verbose {
		agentCfg.Logf = log.Printf
	}
	rt, err := runtime.New(runtime.Config{Shards: stdruntime.GOMAXPROCS(0), Agent: agentCfg})
	if err != nil {
		return err
	}
	defer rt.Close() // last: after everything below has stopped feeding it

	if err := claim(cfg.listen); err != nil {
		return err
	}
	ln, err := ipc.ListenUnix(cfg.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", cfg.listen, err)
	}
	defer os.Remove(cfg.listen)
	// Cancellation — a signal, or run returning early — reaches whoever is
	// accepting by closing the listener, and the replicator directly.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	context.AfterFunc(ctx, func() { ln.Close() })

	if cfg.standby {
		if promoted, err := standBy(ctx, ln, rt); !promoted {
			return err
		}
	}
	if cfg.replicateTo != "" {
		replicated := make(chan struct{})
		go func() {
			defer close(replicated)
			replicate(ctx, rt, cfg.replicateTo, cfg.replicateEvery)
		}()
		defer func() {
			cancel()
			<-replicated
		}()
	}
	log.Printf("ccp-agent: listening on %s (default algorithm %q, %d shard(s))",
		cfg.listen, cfg.defaultAlg, rt.Shards())
	if cfg.serving != nil {
		cfg.serving(rt)
	}
	return rt.Serve(ln)
}

// claim frees path for the listener. It refuses what is not a socket, and a
// socket a live agent answers on; a socket nobody answers on is removed.
func claim(path string) error {
	switch st, err := os.Lstat(path); {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return err
	case st.Mode()&os.ModeSocket == 0:
		return fmt.Errorf("listen %s: exists and is not a socket", path)
	}
	if conn, err := net.Dial("unix", path); err == nil {
		conn.Close()
		return fmt.Errorf("listen %s: an agent is already serving it", path)
	}
	return os.Remove(path)
}

// standBy holds the process in warm-standby mode: replication streams from
// the primary are consumed one at a time on the listen socket — by the serve
// loop datapath connections get, with the snapshot store as its handler —
// keeping the store current. When a stream drops with flow state held, the
// primary died: the store is restored into rt, standBy reports the promotion,
// and run goes on to serve datapaths on the same socket. Cancellation ends it
// unpromoted.
func standBy(ctx context.Context, ln net.Listener, rt *runtime.Runtime) (promoted bool, err error) {
	sb := supervise.NewStandby()
	log.Printf("ccp-agent: warm standby, awaiting replication")
	for sb.FlowCount() == 0 {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				err = nil // the listener was closed to stop us
			}
			return false, err
		}
		unhook := context.AfterFunc(ctx, func() { conn.Close() })
		apply := func(frame []byte, _ func([]byte) error) error { return sb.Apply(frame) }
		serveErr := runtime.ServeTransport(apply, ipc.NewStream(conn))
		unhook()
		conn.Close()
		st := sb.Stats()
		log.Printf("ccp-agent: replication stream ended (%v): holding %d flows (applied %d, removed %d)",
			serveErr, sb.FlowCount(), st.Applied, st.Removed)
		if ctx.Err() != nil {
			return false, nil
		}
	}
	sb.RestoreInto(rt)
	log.Printf("ccp-agent: promoted standby: %d flows restored (%d failed)",
		rt.Stats().Agent.Restores, sb.Stats().RestoreErrors)
	return true, nil
}

// replicate pushes periodic snapshot passes to a standby's socket until ctx
// is cancelled: a full pass on each fresh connection, incremental deltas
// after, redialing with a short backoff while the standby is down.
func replicate(ctx context.Context, rt *runtime.Runtime, path string, every time.Duration) {
	// pause waits d out, or reports that cancellation came first.
	pause := func(d time.Duration) bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}
	for {
		t, err := ipc.DialUnix(path)
		if err != nil {
			if !pause(time.Second) {
				return
			}
			continue
		}
		log.Printf("ccp-agent: replicating to %s every %v", path, every)
		for full := true; ; full = false {
			if _, err := supervise.Replicate(rt, full, t.Send); err != nil {
				log.Printf("ccp-agent: replication to %s broken: %v", path, err)
				break
			}
			if !pause(every) {
				t.Close()
				return
			}
		}
		t.Close()
	}
}
