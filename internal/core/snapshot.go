package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"

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

// ctrlSeqSkip is how far ahead a flow numbers its decisions of the newest
// control sequence it knows its datapath may have applied, when that
// datapath has applied decisions this agent did not send (skipPast). The
// number it knows can be behind by then: a primary may have issued decisions
// after its snapshot was taken, and an earlier incarnation's Install may still
// be on the wire when a resync Create goes up, to land after it. Without the
// skip the flow's first decisions would be discarded as stale, or, as an
// Install's Seq, name the epoch of another incarnation's program. The skip is
// far larger than any plausible in-flight decision count and far smaller
// than the 2^31 wraparound horizon, so ordering against genuinely stale
// messages is preserved. See DESIGN.md §10.
const ctrlSeqSkip = 1 << 16

// skipPast is the one skip rule: f, made or adopted for a datapath that has
// applied control sequence seq (a resync Create's Seq, or a snapshot's last
// issued one), numbers its next decision ctrlSeqSkip above seq, unless it has
// numbered decisions above seq already. (A ctrlSeq of 0 has numbered none:
// proto.NextSeq never returns 0.)
func (f *Flow) skipPast(seq uint32) {
	if f.ctrlSeq == 0 || !proto.SeqNewer(f.ctrlSeq, seq) {
		f.ctrlSeq = seq + ctrlSeqSkip
	}
}

// SnapshotInto streams the agent's per-flow state as proto.Snapshot
// messages: first tombstones for flows closed since the previous call, then
// one snapshot per live flow. With full=false only flows that saw activity
// since their last export are emitted (the steady-state incremental delta);
// full=true re-emits everything, which a freshly attached standby needs
// once. It returns the number of messages emitted.
//
// The *proto.Snapshot handed to sink is reusable scratch owned by the
// agent: it is valid only for the duration of the call, and sink must Clone
// it to retain it. sink runs on the agent's owner, between two messages: it
// must not call back into the agent, nor into the runtime that owns it.
// Iteration is in ascending SID order so replication streams are
// deterministic under the simulator.
func (a *Agent) SnapshotInto(full bool, sink func(*proto.Snapshot) error) (int, error) {
	a.snapshotting = true

	emitted := 0
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

	a.sidScratch = a.sidScratch[:0]
	for sid, st := range a.flows {
		if !full && st.snapped && !st.dirty {
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
		st.snapped, st.dirty = true, false
		emitted++
	}
	return emitted, nil
}

// RestoreFlow rebuilds one flow from a snapshot — the standby half of the HA
// pair. The restored flow resumes the snapshot's sequence-dedup state, keeps
// the snapshot's program as bytes and the report layout read from them
// (readLayout: reports are named without a datapath round trip), and numbers
// future decisions ctrlSeqSkip above the snapshot's last issued sequence
// (newFlow, skipPast). The algorithm is freshly instantiated,
// Init'd against a silent flow handle, then overwritten via ImportState when
// both sides support it — so an algorithm without snapshot support degrades
// to a cold start rather than an error. A snapshot whose program does not
// decode, or is a reference, is refused before anything is touched.
//
// The flow has no reply channel yet; it binds lazily to the first datapath
// message that reaches it after promotion (decisions made before that are
// dropped, not queued). Tombstone snapshots remove the flow instead.
func (a *Agent) RestoreFlow(snap *proto.Snapshot) error {
	if snap.Closed {
		a.drop(snap.SID)
		return nil
	}
	layout, err := a.shared.readLayout(snap.Prog)
	if err != nil {
		return fmt.Errorf("core: snapshot for flow %d carries a bad program: %w", snap.SID, err)
	}
	// Init runs against the still-silent flow: anything it sends (its own
	// Install, an initial cwnd) is dropped, and the imported state below
	// overwrites what it initialized. If the import is refused, the Init'd
	// cold-start state is exactly the right fallback. The snapshot's program
	// (or none: the datapath's default) is applied after Init, whose own
	// Install would otherwise clobber it: the datapath is still running the
	// snapshot's program, not the cold-start one.
	st := a.newFlow(&proto.Create{SID: snap.SID, MSS: snap.MSS, InitCwnd: snap.InitCwnd,
		Seq: snap.CreateSeq, SrcAddr: snap.SrcAddr, DstAddr: snap.DstAddr, Alg: snap.Alg}, snap, nil)
	st.flow.progBytes, st.flow.layout = bytes.Clone(snap.Prog), layout
	if exp, ok := st.alg.(SnapshotExporter); ok && len(snap.State) > 0 {
		exp.ImportState(snap.State)
	}
	atomic.AddInt64(&a.shared.stats.Restores, 1)
	return nil
}
