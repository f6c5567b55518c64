package harness

import "time"

// NewSocketLinkWaits is NewSocketLink with the rendezvous timeout and the
// redial backoff (first delay, cap) set: a test of a wedged agent or of a
// redial waits milliseconds, not seconds.
func NewSocketLinkWaits(cfg SocketLinkConfig, rendezvous, backoffBase, backoffMax time.Duration) *SocketLink {
	return newSocketLink(cfg, waits{rendezvous, backoffBase, backoffMax})
}
