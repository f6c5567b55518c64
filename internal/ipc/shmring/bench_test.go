package shmring_test

import (
	"path/filepath"
	"strconv"
	"testing"

	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
)

// BenchmarkShmRingRTT and BenchmarkUnixRTT are the committed-baseline pair
// (bench/baseline.txt) behind the ISSUE 8 acceptance bar: the ring's 64-byte
// round trip against the Unix datagram lane the repo used before. Both drive
// the same Echo peer through the generic Transport surface; only the lane
// differs. Cross-process numbers (the paper's Figure 2 configuration) come
// from cmd/ipcbench, which forks the echo server.

func benchRTT(b *testing.B, client ipc.Transport, server ipc.Transport) {
	b.Helper()
	go ipc.Echo(server)
	msg := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
		f, err := ipc.RecvFrame(client)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

func BenchmarkShmRingRTT(b *testing.B) {
	a, peer, err := shmring.Pair(filepath.Join(b.TempDir(), "ring"),
		shmring.Options{}, shmring.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	defer peer.Close()
	benchRTT(b, a, peer)
}

// BenchmarkPairLifecycle is one ring's whole life in one process: Pair on a
// fresh path in a temporary directory, one 64-byte frame each way, then both
// Closes. It is the per-ring share of what a stack build pays, the set-up
// that the round trip benchmarks above leave out.
func BenchmarkPairLifecycle(b *testing.B) {
	dir := b.TempDir()
	msg := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, peer, err := shmring.Pair(filepath.Join(dir, strconv.Itoa(i)),
			shmring.Options{}, shmring.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, hop := range [][2]ipc.Transport{{a, peer}, {peer, a}} {
			if err := hop[0].Send(msg); err != nil {
				b.Fatal(err)
			}
			f, err := ipc.RecvFrame(hop[1])
			if err != nil {
				b.Fatal(err)
			}
			f.Release()
		}
		a.Close()
		peer.Close()
	}
}

func BenchmarkUnixRTT(b *testing.B) {
	dir := b.TempDir()
	pa, pb := filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock")
	a, err := ipc.BindDgram(pa, pb)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	peer, err := ipc.BindDgram(pb, pa)
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()
	benchRTT(b, a, peer)
}
