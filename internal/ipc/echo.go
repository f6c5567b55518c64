package ipc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/ccp-repro/ccp/internal/stats"
)

// This file implements the Figure 2 measurement: the round-trip latency of a
// small control message over an IPC mechanism, under an idle and a heavily
// loaded CPU. The paper measured Netlink (kernel↔user) and Unix domain
// sockets (user↔user); cmd/ipcbench measures Unix datagram sockets (the
// closest stdlib analog of Netlink's datagram semantics), Unix stream
// sockets and the shared-memory ring, each between two processes.

// Echo serves echo requests on t until Recv fails: every received message is
// sent straight back. Run it on its own goroutine (or process). The loop is
// allocation-free in steady state: each message is received as a pooled
// frame, echoed, and released.
func Echo(t Transport) {
	for {
		f, err := RecvFrame(t)
		if err != nil {
			return
		}
		err = t.Send(f.B)
		f.Release()
		if err != nil {
			return
		}
	}
}

// MeasureRTT sends n messages of payloadBytes (at least 4) over t, waiting
// for each echo before sending the next, and returns the per-message
// round-trip times. warmup extra round trips run first and are discarded.
// Each echo is received the way the agent and datapath receive, as a frame
// released after use, and must come back byte for byte: every message
// carries its index, so a stale or altered echo is an error.
func MeasureRTT(t Transport, n, warmup, payloadBytes int) (*stats.Samples, error) {
	if payloadBytes < 4 {
		payloadBytes = 4
	}
	msg := make([]byte, payloadBytes)
	for i := range msg {
		msg[i] = byte(i)
	}
	var out stats.Samples
	for i := 0; i < warmup+n; i++ {
		binary.LittleEndian.PutUint32(msg, uint32(i))
		start := time.Now()
		if err := t.Send(msg); err != nil {
			return nil, fmt.Errorf("ipc: echo send %d: %w", i, err)
		}
		reply, err := RecvFrame(t)
		if err != nil {
			return nil, fmt.Errorf("ipc: echo recv %d: %w", i, err)
		}
		rtt := time.Since(start)
		intact := bytes.Equal(reply.B, msg)
		reply.Release()
		if !intact {
			return nil, fmt.Errorf("ipc: echo %d does not match what was sent", i)
		}
		if i >= warmup {
			out.Add(float64(rtt))
		}
	}
	return &out, nil
}

// BusyLoad burns CPU on n goroutines (default: GOMAXPROCS) until the
// returned stop function is called. It reproduces Figure 2's "high CPU
// utilization" condition, where the paper observed *lower* IPC latencies
// (TurboBoost and no idle-state exit penalties).
func BusyLoad(n int) (stop func()) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var quit atomic.Bool
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			x := uint64(2463534242)
			for !quit.Load() {
				// xorshift inner loop: pure CPU, no allocation, no syscalls.
				for k := 0; k < 4096; k++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			sink.Store(x)
		}()
	}
	return func() {
		quit.Store(true)
		for i := 0; i < n; i++ {
			<-done
		}
	}
}

// sink defeats dead-code elimination of the busy loop.
var sink atomic.Uint64
