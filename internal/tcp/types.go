// Package tcp implements the simulated datapath transport: a TCP-like
// reliable sender and receiver running on the netsim event loop. It stands
// in for the paper's Linux kernel datapath. The sender enforces a congestion
// window and pacing rate, detects loss (triple duplicate ACK, RTO), samples
// per-ACK RTT and delivery/sending rates (Linux rate-sample style), and
// drives a cc.CongestionControl through that surface: *Conn is a cc.Host.
// The native in-datapath algorithms (internal/nativecc), the CCP datapath
// runtime (internal/datapath) and the Reno every host carries (internal/cc)
// plug into it; none of them imports this package.
package tcp

import (
	"time"

	"github.com/ccp-repro/ccp/internal/cc"
)

// The callback surface lives in internal/cc. These two names stay here only
// because benchmark/ spells them through this package, and only until the
// benchmark harness's next revision (ROADMAP item 2) spells them from cc.

// AckSample stays until the harness's next revision (ROADMAP item 2).
type AckSample = cc.AckSample

// EventDupAck stays until the harness's next revision (ROADMAP item 2).
const EventDupAck = cc.EventDupAck

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
