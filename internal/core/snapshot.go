package core

import (
	"fmt"
	"sort"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
)

// SnapshotExporter is an optional Alg extension for high availability: an
// algorithm that implements it can have its private registers carried to a
// warm-standby agent and resumed there, so a flow survives an agent failure
// without cold-starting (re-entering slow start / BBR startup).
//
// ExportState appends the registers to dst in a fixed, documented order and
// returns the extended slice; ImportState reads the same order back. The two
// must stay in lockstep within one build — the wire snapshot is versioned,
// so cross-build restores are rejected before ImportState ever runs.
// ImportState returns false when src's shape is not one it understands; the
// restoring agent then keeps the freshly-Init'd state instead.
type SnapshotExporter interface {
	ExportState(dst []float64) []float64
	ImportState(src []float64) bool
}

// ctrlSeqSkip is how far a restored flow's control sequence jumps ahead of
// the last sequence number recorded in its snapshot. The primary may have
// issued decisions after the snapshot was taken, so the datapath's "newest
// applied" counter can be ahead of the snapshot — without the skip, the
// standby's first decisions would be discarded as stale. The skip is far
// larger than any plausible snapshot-age decision count and far smaller than
// the 2^31 wraparound horizon, so ordering against genuinely stale messages
// is preserved. See DESIGN.md §10.
const ctrlSeqSkip = 1 << 16

// SnapshotInto streams the agent's per-flow state as proto.Snapshot
// messages: first tombstones for flows closed since the previous call, then
// one snapshot per live flow. With full=false only flows that saw activity
// since their last export are emitted (the steady-state incremental delta);
// full=true re-emits everything, which a freshly attached standby needs
// once. It returns the number of messages emitted.
//
// The *proto.Snapshot handed to sink is reusable scratch owned by the
// agent: it is valid only for the duration of the call, and sink must Clone
// it to retain it. sink must not call back into the agent (a.mu is held).
// Iteration is in ascending SID order so replication streams are
// deterministic under the simulator.
func (a *Agent) SnapshotInto(full bool, sink func(*proto.Snapshot) error) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snapshotting = true

	emitted := 0
	if len(a.closedSIDs) > 0 {
		sort.Slice(a.closedSIDs, func(i, j int) bool { return a.closedSIDs[i] < a.closedSIDs[j] })
		for _, sid := range a.closedSIDs {
			a.snapScratch = proto.Snapshot{SID: sid, Closed: true,
				Prog: a.snapScratch.Prog[:0], State: a.snapScratch.State[:0]}
			if err := sink(&a.snapScratch); err != nil {
				return emitted, err
			}
			emitted++
		}
		a.closedSIDs = a.closedSIDs[:0]
	}

	a.sidScratch = a.sidScratch[:0]
	for sid, st := range a.flows {
		if !full && st.snapped &&
			st.flow.reports == st.snapReports && st.flow.urgents == st.snapUrgents {
			continue
		}
		a.sidScratch = append(a.sidScratch, sid)
	}
	sort.Slice(a.sidScratch, func(i, j int) bool { return a.sidScratch[i] < a.sidScratch[j] })

	for _, sid := range a.sidScratch {
		st := a.flows[sid]
		f := st.flow
		snap := &a.snapScratch
		*snap = proto.Snapshot{
			SID:       sid,
			Installed: f.installed != nil,
			MSS:       uint32(f.Info.MSS),
			InitCwnd:  uint32(f.Info.InitCwnd),
			CtrlSeq:   f.ctrlSeq,
			CreateSeq: st.createSeq,
			ReportSeq: st.lastReportSeq,
			UrgentSeq: st.lastUrgentSeq,
			SrcAddr:   f.Info.SrcAddr,
			DstAddr:   f.Info.DstAddr,
			Alg:       st.alg.Name(),
			Prog:      append(snap.Prog[:0], f.progBytes...),
			State:     snap.State[:0],
		}
		if exp, ok := st.alg.(SnapshotExporter); ok {
			snap.State = exp.ExportState(snap.State)
		}
		if err := sink(snap); err != nil {
			return emitted, err
		}
		st.snapped = true
		st.snapReports, st.snapUrgents = f.reports, f.urgents
		emitted++
	}
	return emitted, nil
}

// RestoreFlow rebuilds one flow from a snapshot — the standby half of the HA
// pair. The restored flow resumes the snapshot's sequence-dedup state, keeps
// its installed program (so fold reports decode by name without a datapath
// round trip), and numbers future decisions ctrlSeqSkip above the snapshot's
// last issued sequence. The algorithm is freshly instantiated, Init'd
// against a silent flow handle, then overwritten via ImportState when both
// sides support it — so an algorithm without snapshot support degrades to a
// cold start rather than an error.
//
// The flow has no reply channel yet; it binds lazily to the first datapath
// message that reaches it after promotion (decisions made before that are
// dropped, not queued). Tombstone snapshots remove the flow instead.
func (a *Agent) RestoreFlow(snap *proto.Snapshot) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if snap.Closed {
		if st, ok := a.flows[snap.SID]; ok {
			if r, ok := st.alg.(Releaser); ok {
				r.Release(st.flow)
			}
			delete(a.flows, snap.SID)
		}
		return nil
	}
	name := snap.Alg
	if name == "" {
		name = a.cfg.DefaultAlg
	}
	alg, ok := a.cfg.Registry.New(name)
	if !ok {
		a.stats.UnknownAlgReq++
		alg, _ = a.cfg.Registry.New(a.cfg.DefaultAlg)
	}
	info := FlowInfo{
		SID:      snap.SID,
		MSS:      int(snap.MSS),
		InitCwnd: int(snap.InitCwnd),
		SrcAddr:  snap.SrcAddr,
		DstAddr:  snap.DstAddr,
		Alg:      name,
	}
	var policy Policy
	if a.cfg.Policy != nil {
		policy = a.cfg.Policy(info)
	}
	flow := &Flow{Info: info, policy: policy, ctrlSeq: snap.CtrlSeq + ctrlSeqSkip, shared: &a.shared}
	var restoredProg *lang.Program
	if snap.Installed && len(snap.Prog) > 0 {
		p, err := lang.UnmarshalProgram(snap.Prog)
		if err != nil {
			return fmt.Errorf("core: snapshot for flow %d carries a bad program: %w", snap.SID, err)
		}
		if p.Measure.Mode == lang.MeasureRef {
			return fmt.Errorf("core: snapshot for flow %d carries a reference, not a program", snap.SID)
		}
		restoredProg = p
	}
	if old, exists := a.flows[snap.SID]; exists {
		if r, ok := old.alg.(Releaser); ok {
			r.Release(old.flow)
		}
	}
	// Init runs against the still-silent flow: anything it sends (its own
	// Install, an initial cwnd) is dropped, and the imported state below
	// overwrites what it initialized. If the import is refused, the Init'd
	// cold-start state is exactly the right fallback. The snapshot's program
	// is applied after Init — Init's own Install would otherwise clobber it,
	// and the datapath is still running the snapshot's program, not the
	// cold-start one.
	alg.Init(flow)
	if restoredProg != nil {
		flow.installed = restoredProg
		flow.progBytes = append([]byte(nil), snap.Prog...)
		flow.names = nil
	}
	if exp, ok := alg.(SnapshotExporter); ok && len(snap.State) > 0 {
		exp.ImportState(snap.State)
	}
	a.flows[snap.SID] = &flowState{
		flow:          flow,
		alg:           alg,
		createSeq:     snap.CreateSeq,
		lastReportSeq: snap.ReportSeq,
		lastUrgentSeq: snap.UrgentSeq,
		restored:      true,
	}
	a.stats.Restores++
	return nil
}
