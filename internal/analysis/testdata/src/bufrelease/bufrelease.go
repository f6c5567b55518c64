// Package bufrelease is the analysistest corpus for the bufrelease
// analyzer: positive cases carry `// want` annotations, negative cases are
// the ownership patterns the real tree uses and must stay diagnostic-free.
package bufrelease

import (
	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/proto"
)

func sink([]byte)          {}
func handoff(*bufpool.Buf) {}
func source() *bufpool.Buf { return bufpool.Get(16) }
func msg() proto.Msg       { return &proto.Close{SID: 1} }
func mkframe() (*bufpool.Buf, error) {
	return proto.MarshalFrame(msg())
}

// ring mimics the shmring.Endpoint receive surface: frame views whose
// Release advances the consumer cursor, plus the non-blocking poll.
type ring struct{}

func (ring) RecvFrame() (*bufpool.Buf, error)    { return nil, nil }
func (ring) TryRecvFrame() (*bufpool.Buf, error) { return nil, nil }

// --- positive cases ---

func useAfterRelease() {
	f := bufpool.Get(64)
	f.B = append(f.B, 1, 2, 3)
	f.Release()
	sink(f.B) // want `use of f after Release`
}

func useAfterReleaseLen() int {
	f := bufpool.Get(8)
	f.Release()
	return len(f.B) // want `use of f after Release`
}

func doubleRelease() {
	f := bufpool.Get(8)
	sink(f.B)
	f.Release()
	f.Release() // want `released twice on this path`
}

func doubleReleaseViaDefer() {
	f := bufpool.Get(8)
	defer f.Release()
	sink(f.B)
	f.Release() // want `released twice: a deferred Release is already registered`
}

func doubleDefer() {
	f := bufpool.Get(8)
	defer f.Release()
	defer f.Release() // want `released twice: a deferred Release is already registered`
	sink(f.B)
}

func discardedGet() {
	bufpool.Get(32) // want `result of Get discarded`
}

func discardedToBlank() {
	_ = bufpool.Get(32) // want `result of Get discarded`
}

func discardedMarshal() {
	_, _ = proto.MarshalFrame(msg()) // want `result of MarshalFrame discarded`
}

func overwrittenBeforeRelease() {
	var f *bufpool.Buf
	f = bufpool.Get(8)
	f = bufpool.Get(16) // want `f overwritten before the pooled frame`
	f.Release()
}

func discardedTryRecv(r ring) {
	r.TryRecvFrame() // want `result of TryRecvFrame discarded`
}

func overwrittenRingFrame(r ring) {
	f, _ := r.TryRecvFrame()
	f, _ = r.TryRecvFrame() // want `f overwritten before the pooled frame`
	if f != nil {
		f.Release()
	}
}

func ringUseAfterRelease(r ring) {
	f, err := r.RecvFrame()
	if err != nil {
		return
	}
	f.Release()
	sink(f.B) // want `use of f after Release`
}

func releaseInLoopThenUse() {
	f := bufpool.Get(8)
	f.Release()
	for i := 0; i < 3; i++ {
		sink(f.B) // want `use of f after Release`
	}
}

// --- negative cases: the tree's real ownership patterns ---

// Straight-line get → use → release.
func straightLine() {
	f := bufpool.Get(64)
	f.B = append(f.B, 42)
	sink(f.B)
	f.Release()
}

// Borrow-for-the-call with defer (SocketLink.ToAgent shape).
func deferredBorrow() error {
	f, err := mkframe()
	if err != nil {
		return err
	}
	defer f.Release()
	sink(f.B)
	return nil
}

// Conditional early release + continue (bridge/readAll shape): the branch
// releases and leaves; the fallthrough path still owns the frame.
func conditionalRelease(drop bool) {
	f := bufpool.Get(8)
	if drop {
		f.Release()
		return
	}
	sink(f.B)
	f.Release()
}

// Reassignment in a loop resets ownership (ServeTransport shape).
func loopReassign() {
	for i := 0; i < 4; i++ {
		f, err := mkframe()
		if err != nil {
			continue
		}
		sink(f.B)
		f.Release()
	}
}

// Ownership handoff: passing the frame away ends our obligations.
func handsOff() {
	f := bufpool.Get(8)
	handoff(f)
}

// Returning the frame transfers ownership to the caller.
func returnsFrame() *bufpool.Buf {
	f := bufpool.Get(8)
	f.B = append(f.B, 7)
	return f
}

// Select-based release in each unreachable-together arm (a channel-carried
// frame): branch state is not merged, so the post-select use is clean.
func selectRelease(ch chan *bufpool.Buf, closed chan struct{}) {
	f := bufpool.Get(8)
	select {
	case <-closed:
		f.Release()
		return
	case ch <- f:
		return
	}
}

// A frame captured by a scheduled closure is released there, not here
// (the shape of bridge.Bridge.cross).
func closureRelease(schedule func(func())) {
	f, err := mkframe()
	if err != nil {
		return
	}
	schedule(func() {
		defer f.Release()
		sink(f.B)
	})
}

// Wrapped buffers follow the same discipline without being pooled.
func wrapped(data []byte) {
	f := bufpool.Wrap(data)
	sink(f.B)
	f.Release()
}

// The multiplexed poll loop (runtime.ServeSet shape): empty polls return a
// nil frame, hits are consumed and released before the next poll.
func pollLoop(r ring) {
	for i := 0; i < 4; i++ {
		f, err := r.TryRecvFrame()
		if err != nil || f == nil {
			continue
		}
		sink(f.B)
		f.Release()
	}
}

// Blocking ring receive with the borrow-then-release discipline (ipc.Echo
// shape).
func ringBorrow(r ring) {
	for i := 0; i < 4; i++ {
		f, err := r.RecvFrame()
		if err != nil {
			return
		}
		sink(f.B)
		f.Release()
	}
}
