package proto

import (
	"encoding/binary"
	"math"

	"github.com/ccp-repro/ccp/internal/bufpool"
)

// MarshalFrame encodes m into a pooled frame. The caller owns the returned
// buffer (frame.B is the encoded message) and must Release it exactly once
// when the bytes are no longer needed — after the transport's Send returns,
// or after a receiver has finished decoding. Ownership may be handed off
// (e.g. scheduled into a simulator event that releases after delivery), but
// never shared.
//
// Steady state this allocates nothing: buffers cycle through the pool and
// the encoder appends within their retained capacity.
func MarshalFrame(m Msg) (*bufpool.Buf, error) {
	f := bufpool.Get(64)
	b, err := AppendMarshal(f.B, m)
	if err != nil {
		f.Release()
		return nil, err
	}
	f.B = b
	return f, nil
}

// FrameSID reads the flow a frame is for from its header alone, without
// decoding or checking it: every message a datapath sends the agent carries
// its SID as a uvarint right after the type byte (a Snapshot, which has a
// version byte there, is not one). ok is false when the bytes there are not
// a uvarint that fits 32 bits with room for the check behind it. A frame the
// wire changed may be routed by a SID it never had; the decoder that
// receives it refuses it by its check.
func FrameSID(frame []byte) (sid uint32, ok bool) {
	if len(frame) < 1+checkLen {
		return 0, false
	}
	v, n := binary.Uvarint(frame[1 : len(frame)-checkLen])
	if n <= 0 || v > math.MaxUint32 {
		return 0, false
	}
	return uint32(v), true
}
