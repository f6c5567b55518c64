package netsim

// Test hooks: nothing outside this package's tests needs them.

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// Handle implements Handler.
func (f HandlerFunc) Handle(p *Packet) { f(p) }

// Halt stops Run after the currently executing event returns.
func (s *Sim) Halt() { s.halted = true }

// Pending returns the number of scheduled events still occupying the queue
// (including lazily-cancelled ones not yet compacted away).
func (s *Sim) Pending() int { return len(s.heap) }
