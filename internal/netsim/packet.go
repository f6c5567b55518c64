package netsim

import "time"

// FlowID identifies a transport flow within a simulation.
type FlowID uint32

// Packet is the unit of transmission in the simulator. Data packets carry
// payload bytes identified by [Seq, Seq+Len); ACK packets carry a cumulative
// acknowledgment. Fields the paper's API exposes as per-packet measurements
// (timestamps, ECN, router-stamped header rate) travel with the packet.
type Packet struct {
	Flow FlowID

	// Data direction.
	Seq        uint64 // first payload byte carried
	Len        int    // payload bytes (0 for a pure ACK)
	Segs       int    // MSS-sized segments represented (>=1); >1 models TSO/GRO aggregation
	IsRetx     bool   // retransmission (excluded from RTT sampling)
	WireLen    int    // bytes on the wire including header overhead
	SentAt     time.Duration
	ECNCapable bool
	Marked     bool // CE mark set by a congested queue

	// ACK direction.
	IsAck     bool
	CumAck    uint64        // next byte expected by the receiver
	EchoTS    time.Duration // SentAt of the packet that triggered this ACK
	EchoValid bool          // EchoTS carries a real timestamp (t=0 is valid)
	EchoRetx  bool          // the echoed timestamp came from a retransmission
	ECNEcho   bool          // receiver saw CE since last ACK
	// Sacks advertises up to MaxSackRanges received-but-out-of-order byte
	// ranges [start, end), most recently changed first, like TCP SACK.
	Sacks [][2]uint64

	// Router-stamped feedback for XCP-style algorithms: the bottleneck
	// annotates the allowed per-flow rate (bytes/sec); the receiver echoes
	// it back on ACKs.
	HdrRate float64
}

// HeaderBytes is the per-packet header overhead (IP+TCP-like) charged on the
// wire for every packet, data or ACK.
const HeaderBytes = 40

// MaxSackRanges bounds the SACK blocks an ACK can carry, as TCP option
// space does.
const MaxSackRanges = 3

// Wire returns the packet's size on the wire.
func (p *Packet) Wire() int {
	if p.WireLen > 0 {
		return p.WireLen
	}
	return p.Len + HeaderBytes
}

// Handler consumes packets delivered by a link.
type Handler interface {
	Handle(p *Packet)
}
