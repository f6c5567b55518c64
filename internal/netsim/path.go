package netsim

// PathConfig describes a symmetric two-way path: a forward bottleneck link
// (data direction) and a reverse link for ACKs. The reverse link has the
// bottleneck's one-way delay, so RTTmin = 2 * Delay, and is provisioned
// with ample rate and buffer so ACKs never queue — the common
// dumbbell-evaluation assumption.
type PathConfig struct {
	// Bottleneck is the forward (data) link.
	Bottleneck LinkConfig
}

// Path wires a forward bottleneck and a reverse ACK link between two
// handlers. Multiple senders may share the same Path's bottleneck (dumbbell).
type Path struct {
	Forward *Link
	Reverse *Link
}

// NewPath builds a path on sim. Forward traffic is delivered to fwdDst
// (the receiver side); reverse traffic to revDst (the sender side). For
// multi-flow dumbbells, use a Demux handler on each side.
func NewPath(sim *Sim, cfg PathConfig, fwdDst, revDst Handler) *Path {
	rev := cfg.Bottleneck
	// The ACK path should not itself be a bottleneck: scale its rate and
	// buffer up and disable loss/marking.
	rev.RateBps = cfg.Bottleneck.RateBps * 4
	rev.QueueBytes = 64 << 20
	rev.ECNThresholdBytes = 0
	rev.LossProb = 0
	return &Path{
		Forward: NewLink(sim, cfg.Bottleneck, fwdDst),
		Reverse: NewLink(sim, rev, revDst),
	}
}

// Demux routes packets to per-flow handlers, with an optional default.
type Demux struct {
	byFlow map[FlowID]Handler
	// Default handles packets for unknown flows; nil drops them.
	Default Handler
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux {
	return &Demux{byFlow: make(map[FlowID]Handler)}
}

// Register routes packets of flow id to h.
func (d *Demux) Register(id FlowID, h Handler) { d.byFlow[id] = h }

// Handle implements Handler.
func (d *Demux) Handle(p *Packet) {
	if h, ok := d.byFlow[p.Flow]; ok {
		h.Handle(p)
		return
	}
	if d.Default != nil {
		d.Default.Handle(p)
	}
}
