package datapath

// What the runtime counts. Each counter lives with the state of the code
// that bumps it — the core's in CCP.n, a feature's in that feature's struct —
// and Stats, the one place they are read, is the view assembled from
// whichever of them the flow has.

// Stats counts the runtime's activity for experiments and tests.
type Stats struct {
	AcksProcessed  int
	ReportsSent    int
	VectorsSent    int
	VectorRowsSent int
	UrgentsSent    int
	SendErrors     int
	InstallsRecvd  int
	SetCwndRecvd   int
	SetRateRecvd   int
	FallbackOn     int
	FallbackOff    int
	VectorDropped  int
	// StaleCtrlDropped counts sequenced control messages (Install, SetCwnd,
	// SetRate) discarded because a newer decision had already been applied —
	// the reorder/duplicate protection of the control channel.
	StaleCtrlDropped int
	// Resyncs counts Create re-announcements sent while the fallback was
	// active, prompting a restarted agent to re-adopt the flow.
	Resyncs int
	// UnexpectedMsgs counts agent messages of a type the datapath does not
	// handle; they are ignored rather than trusted.
	UnexpectedMsgs int
	// InstallRejects counts Install messages refused — malformed wire
	// programs and verifier rejections alike. Each one was answered with a
	// proto.InstallErr and left the previous program in force.
	InstallRejects int
	// VerifyWarnings counts the verifier's advisory (warn-severity) findings
	// on every Install it checked, refused ones included: they never block an
	// install.
	VerifyWarnings int
	// InstallArtifactHits counts installs whose measure half — the fold with
	// its Init values, or the vector's fields — was already verified and
	// compiled (by this flow's current program or by any flow in the process)
	// and was reused; InstallArtifactMisses counts those that had to build it.
	// Unlike every other counter here they depend on what the process
	// installed before this flow, not on the flow's own history, so
	// run-to-run comparisons go through Deterministic. The built-in default
	// program is prepared once per process and counts as neither.
	InstallArtifactHits   int
	InstallArtifactMisses int
	// InstallsByRef counts the installs, of InstallsRecvd, whose measure half
	// crossed as a reference to the one the flow already ran (an artifact hit
	// found by comparing epochs); RefRefusals counts the references, of
	// InstallRejects, that named an epoch other than the flow's — the whole
	// Install they refer to was lost, reordered behind them, refused or
	// superseded.
	InstallsByRef int
	RefRefusals   int
	// LivenessStale counts fallback entries triggered by the staleness
	// budget (vs. AgentGoneSignals, explicit transport notifications that
	// the agent connection is lost). HandoffRamps counts smoothed
	// fallback-exit transitions.
	LivenessStale    int
	AgentGoneSignals int
	HandoffRamps     int
	// Heartbeat probing (LivenessConfig.ProbeInterval): probes sent, echoes
	// received, and fallback exits granted by a recovered probe score.
	ProbesSent  int
	ProbeEchoes int
	ProbeExits  int
}

// coreCounts are the counters every flow's ACK, report and decision paths
// bump. The rest of Stats is counted where the feature's state is:
// failsafeCounts (failsafe.go) and vectorCounts (report.go).
type coreCounts struct {
	AcksProcessed         int
	ReportsSent           int
	UrgentsSent           int
	SendErrors            int
	InstallsRecvd         int
	SetCwndRecvd          int
	SetRateRecvd          int
	StaleCtrlDropped      int
	UnexpectedMsgs        int
	InstallRejects        int
	VerifyWarnings        int
	InstallArtifactHits   int
	InstallArtifactMisses int
	InstallsByRef         int
	RefRefusals           int
}

// Stats returns a snapshot of the runtime counters: the core's, and those of
// each optional feature the flow has state for (a feature it never had
// counted nothing).
func (d *CCP) Stats() Stats {
	s := Stats{
		AcksProcessed:         d.n.AcksProcessed,
		ReportsSent:           d.n.ReportsSent,
		UrgentsSent:           d.n.UrgentsSent,
		SendErrors:            d.n.SendErrors,
		InstallsRecvd:         d.n.InstallsRecvd,
		SetCwndRecvd:          d.n.SetCwndRecvd,
		SetRateRecvd:          d.n.SetRateRecvd,
		StaleCtrlDropped:      d.n.StaleCtrlDropped,
		UnexpectedMsgs:        d.n.UnexpectedMsgs,
		InstallRejects:        d.n.InstallRejects,
		VerifyWarnings:        d.n.VerifyWarnings,
		InstallArtifactHits:   d.n.InstallArtifactHits,
		InstallArtifactMisses: d.n.InstallArtifactMisses,
		InstallsByRef:         d.n.InstallsByRef,
		RefRefusals:           d.n.RefRefusals,
	}
	if fs := d.fs; fs != nil {
		s.FallbackOn = fs.n.FallbackOn
		s.FallbackOff = fs.n.FallbackOff
		s.Resyncs = fs.n.Resyncs
		s.LivenessStale = fs.n.LivenessStale
		s.AgentGoneSignals = fs.n.AgentGoneSignals
		s.HandoffRamps = fs.n.HandoffRamps
		s.ProbesSent = fs.n.ProbesSent
		s.ProbeEchoes = fs.n.ProbeEchoes
		s.ProbeExits = fs.n.ProbeExits
	}
	if v := d.vec; v != nil {
		s.VectorsSent = v.n.VectorsSent
		s.VectorRowsSent = v.n.VectorRowsSent
		s.VectorDropped = v.n.VectorDropped
	}
	return s
}

// Deterministic returns s without the counters that depend on process
// history (InstallArtifactHits/Misses): what remains is a function of the
// flow's own inputs, comparable between two runs in one process.
func (s Stats) Deterministic() Stats {
	s.InstallArtifactHits, s.InstallArtifactMisses = 0, 0
	return s
}
