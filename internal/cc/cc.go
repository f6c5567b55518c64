// Package cc is what a transport and the congestion controller plugged into
// it say to each other: Linux's pluggable-CC surface, written down. A
// transport (the simulated internal/tcp, or anything else that sends) is a
// Host; a controller — an in-datapath algorithm (internal/nativecc), the CCP
// datapath runtime (internal/datapath), or the Reno every host carries — is a
// CongestionControl written over it. The Clock and Timer the datapath and the
// supervisor run on are here too, so that neither needs a simulator to build.
//
// The package imports nothing but the standard library's time. It is the
// whole of what the CCP datapath needs from its host.
package cc

import "time"

// Host is the transport a controller steers: exactly the methods the CCP
// datapath, its fallback and the in-datapath algorithms call. The transport
// owns transmission and loss recovery; the controller reads its state and
// sets the window and the pacing rate.
type Host interface {
	// MSS is the maximum segment size in payload bytes.
	MSS() int
	// Cwnd is the congestion window in bytes.
	Cwnd() int
	// SetCwnd sets the congestion window in bytes; the host floors it at one
	// MSS.
	SetCwnd(bytes int)
	// PacingRate is the pacing rate in bytes/sec, 0 when pacing is off.
	PacingRate() float64
	// SetPacingRate sets the pacing rate in bytes/sec; 0 disables pacing.
	SetPacingRate(bps float64)
	// SRTT is the smoothed RTT, 0 before the first sample.
	SRTT() time.Duration
	// MinRTT is the smallest RTT sample seen, 0 before the first.
	MinRTT() time.Duration
	// InRecovery reports whether the host is in fast recovery.
	InRecovery() bool
	// Delivered is the cumulative count of bytes delivered.
	Delivered() int64
}

// CongestionControl is the datapath's pluggable congestion-avoidance hook,
// modelled on Linux's pluggable TCP (§4). Implementations adjust the window
// and rate through the Host; the host owns all transmission and
// loss-recovery mechanics.
type CongestionControl interface {
	// Name identifies the algorithm.
	Name() string
	// Init is called once when the connection starts.
	Init(h Host)
	// OnAck is called for every processed acknowledgment.
	OnAck(h Host, s AckSample)
	// OnCongestion is called on loss or ECN events, with the bytes newly
	// declared lost (0 for ECN).
	OnCongestion(h Host, ev CongEvent, lostBytes int)
	// Close is called when the connection stops.
	Close(h Host)
}

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

// Clock is the time source shared by the datapath and agent so that they run
// unchanged under simulation (virtual time) and over real transports
// (wall-clock time).
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
	// AfterFunc schedules fn to run after d. The returned timer can stop it.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending callback, analogous to *time.Timer.
//
// Lifetime: a Timer handle is live only while its callback is pending. Once
// the callback has fired, or Stop has returned true, the handle is dead and
// must be dropped — the simulator recycles the underlying event slot, so a
// retained dead handle may observe (and a Stop on it may cancel) an
// unrelated later event. The idiom throughout this repo is to nil the
// holding field inside the callback and after every Stop.
type Timer interface {
	// Stop cancels the callback and reports whether it was still pending.
	Stop() bool
}
