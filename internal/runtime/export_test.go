package runtime

// NewWithMailboxes is New with shard mailboxes of size messages: a test that
// needs dispatchers blocked on full mailboxes fills eight slots, not 1024.
func NewWithMailboxes(cfg Config, size int) (*Runtime, error) { return newRuntime(cfg, size) }
