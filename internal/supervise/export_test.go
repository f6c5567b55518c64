package supervise

import "time"

// Test hooks: readers of the supervisor's judgment only its tests use.

// State returns the current health judgment.
func (s *Supervisor) State() State { return s.state }

// Latency returns the current latency EWMA (zero before any sample).
func (s *Supervisor) Latency() time.Duration {
	return time.Duration(s.ewma * float64(time.Second))
}
