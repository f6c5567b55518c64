package shmring_test

import (
	"path/filepath"
	"testing"

	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// TestAllocsShmRingRoundTrip pins the ring hot path at zero allocations per
// message: Send stages into the mapped ring with a stack header, and
// RecvFrame hands out the endpoint's reusable view Buf (a 3-index slice of
// ring memory, or the amortized scratch buffer when a record straddles the
// boundary). The small ring forces frequent wrap-arounds, so the scratch
// path is pinned too — it must be warmed before measuring, which is why the
// warmup below walks more than a full ring.
func TestAllocsShmRingRoundTrip(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if bufpool.DebugEnabled {
		t.Skip("debugpool ownership tracking records stack traces on Release")
	}
	a, b, err := shmring.PairSized(filepath.Join(t.TempDir(), "ring"), 4096,
		shmring.Options{}, shmring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	msg := make([]byte, 64)
	var sendErr, recvErr error
	fn := func() {
		if sendErr = a.Send(msg); sendErr != nil {
			return
		}
		f, err := b.RecvFrame()
		if err != nil {
			recvErr = err
			return
		}
		f.Release()
	}
	for i := 0; i < 200; i++ { // >3 full ring trips: warm the wrap scratch
		fn()
	}
	if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
		t.Fatalf("shmring send/recv allocated %.3f times per op, want 0", allocs)
	}
	if sendErr != nil || recvErr != nil {
		t.Fatalf("round trip failed: send=%v recv=%v", sendErr, recvErr)
	}
}

// TestAllocsShmRingTryRecv pins the multiplexed serve loop's poll primitive:
// a TryRecvFrame that finds a frame, and one that finds the ring empty, must
// both stay off the heap.
func TestAllocsShmRingTryRecv(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if bufpool.DebugEnabled {
		t.Skip("debugpool ownership tracking records stack traces on Release")
	}
	a, b, err := shmring.Pair(filepath.Join(t.TempDir(), "ring"),
		shmring.Options{}, shmring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	msg := make([]byte, 64)
	fn := func() {
		a.Send(msg)
		f, _ := b.TryRecvFrame()
		f.Release()
		if f2, _ := b.TryRecvFrame(); f2 != nil { // empty poll
			t.Fatal("unexpected second frame")
		}
	}
	fn()
	if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
		t.Fatalf("shmring try-recv poll allocated %.3f times per op, want 0", allocs)
	}
}
