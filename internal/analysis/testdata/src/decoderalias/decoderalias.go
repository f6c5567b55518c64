// Package decoderalias is the analysistest corpus for the decoderalias
// analyzer: retaining decoder-owned values across the next Unmarshal
// without proto.Clone.
package decoderalias

import (
	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/proto"
)

func consume(proto.Msg)  {}
func frames() [][]byte   { return nil }
func fields(f []float64) {}
func sink([]byte)        {}

// ringEP mimics the shmring.Endpoint receive surface: zero-copy views of
// ring memory, recycled by the next receive on the same endpoint.
type ringEP struct{}

func (ringEP) RecvFrame() (*bufpool.Buf, error)    { return nil, nil }
func (ringEP) TryRecvFrame() (*bufpool.Buf, error) { return nil, nil }

// --- positive cases ---

// Straight-line: m1 aliases scratch recycled by the second Unmarshal.
func staleAfterSecondDecode(dec *proto.Decoder, b1, b2 []byte) {
	m1, _ := dec.Unmarshal(b1)
	m2, _ := dec.Unmarshal(b2)
	consume(m1) // want `m1 aliases decoder scratch invalidated by the Unmarshal`
	consume(m2)
}

// A derived view (type assertion) goes stale with its parent.
func staleDerivedView(dec *proto.Decoder, b1, b2 []byte) {
	m, _ := dec.Unmarshal(b1)
	rep, ok := m.(*proto.Measurement)
	_, _ = dec.Unmarshal(b2)
	if ok {
		fields(rep.Fields) // want `rep aliases decoder scratch invalidated by the Unmarshal`
	}
}

// Appending each iteration's message to an outer slice retains scratch
// that the next iteration's Unmarshal recycles.
func retainAcrossIterations(dec *proto.Decoder) []proto.Msg {
	var out []proto.Msg
	for _, raw := range frames() {
		m, err := dec.Unmarshal(raw)
		if err != nil {
			continue
		}
		out = append(out, m) // want `decoder-owned value stored outside the loop`
	}
	return out
}

// Same bug through a channel: the receiver sees recycled scratch.
func retainViaChannel(dec *proto.Decoder, ch chan proto.Msg) {
	for _, raw := range frames() {
		m, err := dec.Unmarshal(raw)
		if err != nil {
			continue
		}
		ch <- m // want `decoder-owned value sent on a channel`
	}
}

// Storing the latest message in an outer variable outlives the iteration.
func retainInOuterVar(dec *proto.Decoder) proto.Msg {
	var last proto.Msg
	for _, raw := range frames() {
		m, err := dec.Unmarshal(raw)
		if err != nil {
			continue
		}
		last = m // want `decoder-owned value stored outside the loop`
	}
	return last
}

// A ring view's bytes go stale when the same endpoint receives again.
func staleRingViewAfterNextRecv(ep ringEP) {
	f1, _ := ep.RecvFrame()
	b := f1.B
	f1.Release()
	f2, _ := ep.RecvFrame()
	sink(b) // want `b aliases ring memory invalidated by the RecvFrame`
	f2.Release()
}

// The non-blocking poll invalidates exactly like the blocking receive.
func staleRingViewAfterPoll(ep ringEP) {
	f, _ := ep.RecvFrame()
	m := f.B
	f.Release()
	g, _ := ep.TryRecvFrame()
	if g != nil {
		sink(m) // want `m aliases ring memory invalidated by the TryRecvFrame`
		g.Release()
	}
}

// Ring-view bytes appended to outer state survive only until the next
// iteration's receive recycles the ring region.
func retainRingViewAcrossIterations(ep ringEP) [][]byte {
	var views [][]byte
	for i := 0; i < 4; i++ {
		f, err := ep.RecvFrame()
		if err != nil {
			break
		}
		views = append(views, f.B) // want `ring-frame view stored outside the loop`
		f.Release()
	}
	return views
}

// --- negative cases ---

// Borrow-for-the-call (bridge/agent/runtime Handler contract).
func borrowPerIteration(dec *proto.Decoder) {
	for _, raw := range frames() {
		m, err := dec.Unmarshal(raw)
		if err != nil {
			continue
		}
		consume(m)
	}
}

// Clone severs the alias: retention is fine afterwards.
func cloneThenRetain(dec *proto.Decoder) []proto.Msg {
	var out []proto.Msg
	for _, raw := range frames() {
		m, err := dec.Unmarshal(raw)
		if err != nil {
			continue
		}
		out = append(out, proto.Clone(m))
	}
	return out
}

// CloneInto severs it the same way, into a container the caller keeps
// (the shard mailbox's shape).
func cloneIntoKeptContainer(dec *proto.Decoder) proto.Msg {
	var kept proto.Msg
	for _, raw := range frames() {
		m, err := dec.Unmarshal(raw)
		if err != nil {
			continue
		}
		kept = proto.CloneInto(kept, m)
	}
	return kept
}

// Cloning before the second decode keeps the first message valid.
func cloneBeforeSecondDecode(dec *proto.Decoder, b1, b2 []byte) {
	m1, _ := dec.Unmarshal(b1)
	keep := proto.Clone(m1)
	m2, _ := dec.Unmarshal(b2)
	consume(keep)
	consume(m2)
}

// Distinct decoders do not invalidate each other.
func twoDecoders(d1, d2 *proto.Decoder, b1, b2 []byte) {
	m1, _ := d1.Unmarshal(b1)
	m2, _ := d2.Unmarshal(b2)
	consume(m1)
	consume(m2)
}

// Split views of a single decode, consumed before the next decode (the
// benchmark harness's receive shape).
func splitAndDeliver(dec *proto.Decoder, raw []byte) {
	m, err := dec.Unmarshal(raw)
	if err != nil {
		return
	}
	for _, sub := range proto.Split(m) {
		consume(sub)
	}
}

// The multiplexed serve shape (runtime.ServeSet): poll, decode with a
// scratch decoder, dispatch borrowed, release — all consumed before the
// next receive, so nothing goes stale.
func ringDecodeDispatch(ep ringEP, dec *proto.Decoder) {
	for i := 0; i < 4; i++ {
		f, err := ep.TryRecvFrame()
		if err != nil || f == nil {
			continue
		}
		m, err := dec.Unmarshal(f.B)
		if err == nil {
			consume(m)
		}
		f.Release()
	}
}

// Distinct endpoints do not invalidate each other's views.
func twoRings(p, q ringEP) {
	f1, _ := p.RecvFrame()
	f2, _ := q.RecvFrame()
	sink(f1.B)
	sink(f2.B)
	f1.Release()
	f2.Release()
}

// Scalars copied out of a message carry no aliases and may be retained.
func scalarExtraction(dec *proto.Decoder) []uint32 {
	var sids []uint32
	for _, raw := range frames() {
		m, err := dec.Unmarshal(raw)
		if err != nil {
			continue
		}
		sids = append(sids, m.FlowSID())
	}
	return sids
}
