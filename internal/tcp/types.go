// Package tcp implements the simulated datapath transport: a TCP-like
// reliable sender and receiver running on the netsim event loop. It stands
// in for the paper's Linux kernel datapath. The sender enforces a congestion
// window and pacing rate, detects loss (triple duplicate ACK, RTO), samples
// per-ACK RTT and delivery/sending rates (Linux rate-sample style), and
// exposes the pluggable congestion-control callback surface that both the
// native in-datapath algorithms (internal/nativecc) and the CCP datapath
// runtime (internal/datapath) implement.
package tcp

import "time"

// CongEvent classifies congestion signals the datapath raises synchronously.
type CongEvent uint8

// Congestion events.
const (
	EventDupAck  CongEvent = iota + 1 // triple duplicate ACK; fast retransmit issued
	EventTimeout                      // retransmission timeout fired
	EventECN                          // ECN echo seen on an ACK
)

func (e CongEvent) String() string {
	switch e {
	case EventDupAck:
		return "dupack"
	case EventTimeout:
		return "timeout"
	case EventECN:
		return "ecn"
	}
	return "event(?)"
}

// AckSample carries the per-ACK measurements (Table 1's primitives) the
// datapath computes for its congestion-control module.
type AckSample struct {
	// RTT is the RTT sample from the echoed timestamp, 0 if the echo came
	// from a retransmission (Karn's rule).
	RTT time.Duration
	// AckedBytes is the number of bytes newly cumulatively acknowledged.
	AckedBytes int
	// SackedBytes is the number of bytes newly selectively acknowledged.
	SackedBytes int
	// LostBytes is the number of bytes newly declared lost by this event.
	LostBytes int
	// ECNEcho reports a CE echo on this ACK.
	ECNEcho bool
	// SndRate is the measured sending rate (bytes/sec) over the lifetime of
	// the just-acked segment.
	SndRate float64
	// DeliveryRate is the measured delivery rate (bytes/sec) over the
	// lifetime of the just-acked segment.
	DeliveryRate float64
	// InFlight is the number of unacknowledged bytes after this ACK.
	InFlight int
	// HdrRate is the router-stamped per-flow rate echoed by the receiver
	// (XCP-style), 0 if absent.
	HdrRate float64
	// Now is the datapath clock at ACK processing time.
	Now time.Duration
}

// CongestionControl is the datapath's pluggable congestion-avoidance hook,
// modelled on Linux's pluggable TCP (§4). Implementations adjust the window
// and rate through the Conn handle; the datapath owns all transmission and
// loss-recovery mechanics.
type CongestionControl interface {
	// Name identifies the algorithm.
	Name() string
	// Init is called once when the connection starts.
	Init(c *Conn)
	// OnAck is called for every processed acknowledgment.
	OnAck(c *Conn, s AckSample)
	// OnCongestion is called on loss or ECN events, with the bytes newly
	// declared lost (0 for ECN).
	OnCongestion(c *Conn, ev CongEvent, lostBytes int)
	// Close is called when the connection stops.
	Close(c *Conn)
}

// Options configures a flow's endpoints.
type Options struct {
	// MSS is the maximum segment size in payload bytes (default 1448).
	MSS int
	// ECN enables ECN-capable transport on data packets.
	ECN bool
	// AckEvery generates one ACK per this many data packets (default 1;
	// 2 models delayed ACKs). Out-of-order arrivals always ACK immediately.
	AckEvery int
	// TSOSegs batches up to this many segments into one wire packet
	// (default 1 = no segmentation offload). Used by the Figure 5 offload
	// experiments.
	TSOSegs int
	// MinRTO floors the retransmission timeout (default 200ms).
	MinRTO time.Duration
}

// The initial window (IW10) and the cap on the sender's segment buffer, both
// in segments.
const (
	initialWindowSegs = 10
	segBufferCap      = 1 << 20
)

func (o Options) withDefaults() Options {
	if o.MSS <= 0 {
		o.MSS = 1448
	}
	if o.AckEvery <= 0 {
		o.AckEvery = 1
	}
	if o.TSOSegs <= 0 {
		o.TSOSegs = 1
	}
	if o.MinRTO <= 0 {
		o.MinRTO = 200 * time.Millisecond
	}
	return o
}

// ConnStats aggregates sender-side counters.
type ConnStats struct {
	SegsSent     int   // data segments sent (including retransmissions)
	PktsSent     int   // wire packets sent (differs from SegsSent under TSO)
	Retransmits  int   // segments retransmitted
	FastRetx     int   // fast-retransmit events (3 dup ACKs)
	Timeouts     int   // RTO events
	AcksRcvd     int   // ACK packets processed
	BytesAcked   int64 // cumulative bytes acknowledged
	ECNEchoes    int   // ACKs carrying ECN echo
	RTTSamples   int   // valid RTT samples taken
	CwndSetCalls int   // congestion-control cwnd updates
	RateSetCalls int   // congestion-control rate updates
}

// ReceiverStats aggregates receiver-side counters.
type ReceiverStats struct {
	PktsRcvd       int // data packets received
	SegsRcvd       int // segments received (≥ PktsRcvd under TSO)
	AcksSent       int
	BytesDelivered int64 // in-order bytes delivered to the application
	OutOfOrder     int   // packets buffered out of order
	Duplicates     int   // packets at or below rcvNxt
	CEMarks        int   // CE-marked packets seen
}
