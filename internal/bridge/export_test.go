package bridge

import "time"

// Test hooks for the external bridge_test package.

// SetLatency changes the one-way IPC latency for subsequent messages.
func (b *Bridge) SetLatency(d time.Duration) { b.latency = d }

// Stopped reports whether the bridge is dropping traffic.
func (b *Bridge) Stopped() bool { return b.stopped }
