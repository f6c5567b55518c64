package algorithms

import (
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
)

// GroupCM is the Congestion-Manager-style aggregate controller §5 gestures
// at ("CCP makes it possible to implement congestion control ... for
// groups of flows that share common bottlenecks"). One shared AIMD control
// loop governs an aggregate rate budget; each member flow is paced at an
// equal share. Flows join at Init and leave at Release; the budget adapts
// to the *group's* combined loss and delivery signals, so N flows to one
// bottleneck behave like one, instead of N competing loops.
//
// Use NewGroupCM to build a factory whose instances share one controller:
//
//	reg.Register("cm", algorithms.NewGroupCM())
type GroupCM struct {
	mss     float64
	rate    float64 // aggregate budget, bytes/sec
	minRate float64
	flows   map[uint32]*core.Flow
	// holdUntil is the report count before which further decreases are
	// suppressed (~3 RTT rounds): one loss burst, one aggregate cut.
	holdUntil int
	reports   int
}

// NewGroupCM returns an AlgFactory whose per-flow instances share one
// aggregate controller.
func NewGroupCM() core.AlgFactory {
	cm := &GroupCM{flows: make(map[uint32]*core.Flow)}
	return func() core.Alg { return &cmMember{cm: cm} }
}

// join admits a flow and rebalances.
func (cm *GroupCM) join(f *core.Flow) {
	if cm.mss == 0 {
		cm.mss = float64(f.Info.MSS)
		cm.minRate = 2 * cm.mss
		cm.rate = float64(f.Info.InitCwnd) * 10
	}
	cm.flows[f.Info.SID] = f
	cm.rebalance()
}

// leave removes a flow and rebalances the remainder.
func (cm *GroupCM) leave(f *core.Flow) {
	delete(cm.flows, f.Info.SID)
	cm.rebalance()
}

// rebalance paces every member at an equal share of the budget.
func (cm *GroupCM) rebalance() {
	n := len(cm.flows)
	if n == 0 {
		return
	}
	share := cm.rate / float64(n)
	for _, f := range cm.flows {
		f.SetRate(share)
		// The window is a safety cap well above the paced rate's BDP.
		f.SetCwnd(int(share)) // one second of data at the share rate
	}
}

// onMeasurement runs the aggregate AIMD: any member's report advances the
// group loop.
func (cm *GroupCM) onMeasurement(m core.Measurement) {
	cm.reports++
	// Advance roughly once per member per round: additive increase scaled
	// down by group size so the aggregate grows one "flow's worth" per RTT.
	n := len(cm.flows)
	if n == 0 {
		return
	}
	if m.GetOr("acked", 0) <= 0 {
		return
	}
	if lost := m.GetOr("lost", 0); lost > 0 && cm.reports >= cm.holdUntil {
		cm.cut(0.7)
	} else {
		cm.rate += 2 * cm.mss * 10 / float64(n)
	}
	cm.rebalance()
}

// cut applies one multiplicative decrease and opens the hold-down window.
func (cm *GroupCM) cut(factor float64) {
	cm.rate = maxF(cm.rate*factor, cm.minRate)
	cm.holdUntil = cm.reports + 3*len(cm.flows)
}

// onUrgent reacts at most once per hold-down window to member loss events.
func (cm *GroupCM) onUrgent(u core.UrgentEvent) {
	if u.Kind == proto.UrgentTimeout {
		cm.cut(0.5)
		cm.rebalance()
		return
	}
	if cm.reports >= cm.holdUntil {
		cm.cut(0.7)
		cm.rebalance()
	}
}

// cmMember is the thin per-flow shim the registry instantiates.
type cmMember struct {
	cm *GroupCM
}

// Name implements core.Alg.
func (m *cmMember) Name() string { return "cm" }

// Init implements core.Alg.
func (m *cmMember) Init(f *core.Flow) { m.cm.join(f) }

// OnMeasurement implements core.Alg.
func (m *cmMember) OnMeasurement(f *core.Flow, meas core.Measurement) {
	m.cm.onMeasurement(meas)
}

// OnUrgent implements core.Alg.
func (m *cmMember) OnUrgent(f *core.Flow, u core.UrgentEvent) {
	m.cm.onUrgent(u)
}

// Release implements core.Releaser.
func (m *cmMember) Release(f *core.Flow) { m.cm.leave(f) }
