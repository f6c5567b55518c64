package tcp

// Test hooks for the external tcp_test package.

// InFlight returns the bytes currently considered in flight.
func (c *Conn) InFlight() int { return c.pipe }

// SndUna exposes the cumulative-ack point for reliability tests.
func (c *Conn) SndUna() uint64 { return c.sndUna }
