package proto

import (
	"encoding/binary"

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
// decoding it: every message a datapath sends the agent carries its SID
// little-endian at bytes 1–4, after the type byte (a Snapshot, which has a
// version byte there, is not one). ok is false when the frame is too short
// to hold one; the body is not checked.
func FrameSID(frame []byte) (sid uint32, ok bool) {
	if len(frame) < 5 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(frame[1:5]), true
}
