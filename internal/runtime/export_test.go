package runtime

// NewWithMailboxes is New with shard mailboxes of size messages: a test that
// needs dispatchers blocked on full mailboxes fills eight slots, not 1024.
func NewWithMailboxes(cfg Config, size int) (*Runtime, error) { return newRuntime(cfg, size) }

// Drivers are the two ways a runtime's mailboxes are drained, for tests that
// dispatch through HandleFrame to run under both: a goroutine per shard,
// which a serve loop starts (ccp-agent, ./benchmark), and the callers that
// push, while no serve loop runs (the simulator). Start is called once, on a
// runtime New just returned.
var Drivers = []struct {
	Name  string
	Start func(*Runtime)
}{
	{"goroutines", (*Runtime).serve},
	{"callers", func(*Runtime) {}},
}
