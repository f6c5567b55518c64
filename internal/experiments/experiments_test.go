package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/offload"
)

// Experiment tests use scaled-down configurations (lower rates, shorter
// runs) so the suite stays fast; cmd/ccp-sim runs the paper-scale versions.

func TestFig3ShapeHolds(t *testing.T) {
	res := Fig3(Fig3Config{
		RateBps:  100e6,
		Duration: 15 * time.Second,
	})
	// The paper's claim: CCP matches the native implementation — similar
	// utilization (within a few points) and similar median RTT.
	if res.Native.Utilization < 0.85 {
		t.Fatalf("native cubic utilization %.3f", res.Native.Utilization)
	}
	if res.CCP.Utilization < res.Native.Utilization-0.08 {
		t.Fatalf("ccp utilization %.3f far below native %.3f",
			res.CCP.Utilization, res.Native.Utilization)
	}
	dRTT := res.CCP.MedianRTT - res.Native.MedianRTT
	if dRTT < 0 {
		dRTT = -dRTT
	}
	if dRTT > 5*time.Millisecond {
		t.Fatalf("median RTT diverged: ccp=%v native=%v",
			res.CCP.MedianRTT, res.Native.MedianRTT)
	}
	if res.CCPCwnd.Len() == 0 || res.NativeCwnd.Len() == 0 {
		t.Fatal("missing cwnd series")
	}
	out := res.String()
	for _, frag := range []string{"Figure 3", "ccp-cubic", "linux-cubic"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendering missing %q", frag)
		}
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	res := Fig4(Fig4Config{
		RateBps:  48e6,
		Duration: 40 * time.Second,
		SecondAt: 15 * time.Second,
	})
	// Both implementations converge: the second flow reaches a fair share.
	if res.CCP.FairnessAfter < 0.85 {
		t.Fatalf("ccp fairness %.3f", res.CCP.FairnessAfter)
	}
	if res.Native.FairnessAfter < 0.85 {
		t.Fatalf("native fairness %.3f", res.Native.FairnessAfter)
	}
	if res.CCP.ConvergedAfter < 0 {
		t.Fatal("ccp flow 2 never converged")
	}
	if res.Native.ConvergedAfter < 0 {
		t.Fatal("native flow 2 never converged")
	}
	if res.CCP.Utilization < 0.85 || res.Native.Utilization < 0.85 {
		t.Fatalf("utilization ccp=%.3f native=%.3f",
			res.CCP.Utilization, res.Native.Utilization)
	}
}

func TestFig5ShapeHolds(t *testing.T) {
	res := Fig5(Fig5Config{
		RateBps:  2e9, // scaled 10G -> 2G so per-packet runs stay fast
		Duration: 2 * time.Second,
		Runs:     1,
		Costs:    scaledCosts(5), // keep CPU-per-byte comparable at 1/5 rate
	})
	on := res.OffloadsOn
	tsoOff := res.TSOOff
	allOff := res.AllOff
	// Offloads on: both near line rate.
	if on[0].AchievedBps < 0.85*2e9 || on[1].AchievedBps < 0.8*2e9 {
		t.Fatalf("offloads on: kernel=%.2g ccp=%.2g", on[0].AchievedBps, on[1].AchievedBps)
	}
	// TSO off: CCP at least comparable to kernel (paper: slightly higher).
	if tsoOff[1].AchievedBps < 0.9*tsoOff[0].AchievedBps {
		t.Fatalf("tso off: ccp %.3g below kernel %.3g", tsoOff[1].AchievedBps, tsoOff[0].AchievedBps)
	}
	// All off: comparable (within 15%).
	lo, hi := allOff[0].AchievedBps, allOff[1].AchievedBps
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0.8*hi {
		t.Fatalf("all off: kernel=%.3g ccp=%.3g diverge", allOff[0].AchievedBps, allOff[1].AchievedBps)
	}
	// GRO batches must be larger with offloads than without.
	if on[0].GROBatchSegs <= allOff[0].GROBatchSegs {
		t.Fatal("GRO accounting inverted")
	}
}

// scaledCosts divides the CPU budgets to match a rate-scaled link.
func scaledCosts(factor float64) offload.CostModel {
	m := offload.DefaultCosts()
	m.SenderBudget /= factor
	m.ReceiverBudget /= factor
	return m
}

func TestTable1Complete(t *testing.T) {
	res := Table1()
	if len(res.Rows) < 10 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Programs == 0 && row.DirectOps == "" {
			t.Fatalf("%s: exercises no control path at Init", row.Name)
		}
	}
	if !strings.Contains(res.String(), "Protocol") {
		t.Fatal("rendering broken")
	}
}

func TestTable2AllVerified(t *testing.T) {
	res := Table2()
	if len(res.Rows) != 6 {
		t.Fatalf("rows=%d, want 6 primitives", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Verified {
			t.Fatalf("primitive %s not verified", row.Operation)
		}
	}
	if res.AgentErrors != 0 || res.UnknownEpochs != 0 {
		t.Fatalf("the agent could not read %d reports and named no program for %d", res.AgentErrors, res.UnknownEpochs)
	}
}

func TestTable3AllHandlersFire(t *testing.T) {
	res := Table3()
	for _, row := range res.Rows {
		if row.Calls == 0 {
			t.Fatalf("handler %s never invoked", row.Function)
		}
	}
}

func TestAblBatchingShape(t *testing.T) {
	res := AblBatching()
	if len(res.Rows) != 6 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	// §2.3's claim: per-RTT batching performs like (near) per-ACK.
	fine := res.Rows[0]   // 0.05 RTT
	perRTT := res.Rows[3] // 1 RTT
	if perRTT.Utilization < fine.Utilization-0.05 {
		t.Fatalf("per-RTT utilization %.3f well below fine-grained %.3f",
			perRTT.Utilization, fine.Utilization)
	}
	// ...at a fraction of the message cost.
	if perRTT.MsgsPerSec > fine.MsgsPerSec/5 {
		t.Fatalf("per-RTT msgs %.1f not much cheaper than %.1f",
			perRTT.MsgsPerSec, fine.MsgsPerSec)
	}
	// Message rate decreases monotonically with the interval.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].MsgsPerSec >= res.Rows[i-1].MsgsPerSec {
			t.Fatalf("msgs/sec not decreasing at row %d", i)
		}
	}
}

func TestAblFoldVecShape(t *testing.T) {
	res := AblFoldVec()
	// Equivalent behaviour...
	if d := res.Fold.Utilization - res.Vector.Utilization; d > 0.1 || d < -0.1 {
		t.Fatalf("fold/vector utilization diverged: %.3f vs %.3f",
			res.Fold.Utilization, res.Vector.Utilization)
	}
	// ...but the vector ships far more data and per-packet rows.
	if res.Vector.BytesPerSec < 2*res.Fold.BytesPerSec {
		t.Fatalf("vector bytes %.0f not >> fold bytes %.0f",
			res.Vector.BytesPerSec, res.Fold.BytesPerSec)
	}
	if res.Vector.RowsPerSec == 0 || res.Fold.RowsPerSec != 0 {
		t.Fatalf("row accounting wrong: fold=%.1f vector=%.1f",
			res.Fold.RowsPerSec, res.Vector.RowsPerSec)
	}
}

func TestAblFallbackShape(t *testing.T) {
	res := AblFallback()
	if res.Activations != 1 || res.Deactivations != 1 {
		t.Fatalf("fallback cycled %d/%d times", res.Activations, res.Deactivations)
	}
	// The flow must keep moving in all three phases.
	for _, u := range []float64{res.UtilBefore, res.UtilDuring, res.UtilAfter} {
		if u < 0.5 {
			t.Fatalf("a phase starved: %+v", res)
		}
	}
	// Recovery is active, not incidental: the datapath re-announced the flow
	// while the agent was gone, the agent re-adopted it on return, and the
	// algorithm's program was re-installed — the CCP window after recovery
	// is the fresh program's decision, not leftover fallback state.
	if res.Resyncs == 0 {
		t.Fatalf("no resync Creates during the outage: %+v", res)
	}
	if res.AgentFlowsCreated < 2 {
		t.Fatalf("agent never re-adopted the flow: %+v", res)
	}
	if res.Installs < 2 {
		t.Fatalf("program not re-installed after recovery: %+v", res)
	}
}

func TestAblChaosShape(t *testing.T) {
	res := AblChaos()
	if len(res.Rows) != 5 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Bounded utilization at every intensity: the flow always completes
		// and keeps the link moving (the §5 fallback carries the worst case).
		if row.Utilization < 0.2 {
			t.Fatalf("flow starved at rate %.2f: %+v", row.Rate, row)
		}
		if row.Rate == 0 && (row.Injected.Dropped != 0 || row.FallbackOn != 0) {
			t.Fatalf("faults at rate 0: %+v", row)
		}
	}
	heavy := res.Rows[len(res.Rows)-1]
	// Under heavy faults the channel is effectively dead: the fallback must
	// engage and the datapath must be re-announcing the flow.
	if heavy.FallbackOn == 0 {
		t.Fatalf("fallback never engaged at rate %.2f: %+v", heavy.Rate, heavy)
	}
	if heavy.Resyncs == 0 {
		t.Fatalf("no resyncs under heavy faults: %+v", heavy)
	}
	if heavy.Injected.DecodeKilled == 0 {
		t.Fatalf("corruption never reached the decoders: %+v", heavy)
	}
}

func TestAblChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double sweep in -short mode")
	}
	a, b := AblChaos(), AblChaos()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical sweeps diverged:\n%v\n%v", a, b)
	}
}

func TestAblUrgentShape(t *testing.T) {
	res := AblUrgent()
	// Urgent signals must not hurt; both configurations keep working.
	if res.Urgent.Utilization < 0.6 || res.Batched.Utilization < 0.5 {
		t.Fatalf("utilization collapsed: %+v", res)
	}
}

func TestAblLowRTTShape(t *testing.T) {
	res := AblLowRTT()
	if len(res.Cells) != 16 {
		t.Fatalf("cells=%d", len(res.Cells))
	}
	// At a WAN RTT (10ms), IPC latency up to 1ms must not matter much.
	var wanFast, wanSlow float64
	for _, c := range res.Cells {
		if c.RTT == 10*time.Millisecond {
			if c.IPCLatency == time.Microsecond {
				wanFast = c.Utilization
			}
			if c.IPCLatency == time.Millisecond {
				wanSlow = c.Utilization
			}
		}
	}
	if wanFast < 0.7 {
		t.Fatalf("WAN baseline weak: %.3f", wanFast)
	}
	if wanSlow < wanFast-0.15 {
		t.Fatalf("IPC latency hurt WAN case: fast=%.3f slow=%.3f", wanFast, wanSlow)
	}
}

func TestMedianHelper(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
}

func TestAblSmoothShape(t *testing.T) {
	res := AblSmooth()
	if res.Smooth.PeakQueueBytes >= res.Step.PeakQueueBytes {
		t.Fatalf("smoothing did not reduce peak queue: %d vs %d",
			res.Smooth.PeakQueueBytes, res.Step.PeakQueueBytes)
	}
	if res.Smooth.Utilization < res.Step.Utilization-0.05 {
		t.Fatalf("smoothing cost utilization: %.3f vs %.3f",
			res.Smooth.Utilization, res.Step.Utilization)
	}
}

func TestAblSynthesisShape(t *testing.T) {
	res := AblSynthesis()
	if len(res.Rows) != 4 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	// In-datapath drops must be (nearly) flat across IPC latencies...
	first, last := res.Rows[0].InDP.Drops, res.Rows[len(res.Rows)-1].InDP.Drops
	if last > first*2+100 {
		t.Fatalf("in-datapath drops grew with IPC latency: %d -> %d", first, last)
	}
	// ...while off-datapath drops blow up at high latency.
	worst := res.Rows[len(res.Rows)-1]
	if worst.OffDP.Drops < worst.InDP.Drops*2 {
		t.Fatalf("off-datapath (%d drops) should degrade well past in-datapath (%d) at %v IPC",
			worst.OffDP.Drops, worst.InDP.Drops, worst.IPCLatency)
	}
}

func TestAblGroupShape(t *testing.T) {
	res := AblGroup()
	// The aggregate trades some utilization for far fewer drops and lower
	// delay; both modes must stay fair.
	if res.Group.Drops >= res.Independent.Drops {
		t.Fatalf("aggregate did not reduce drops: %d vs %d",
			res.Group.Drops, res.Independent.Drops)
	}
	if res.Group.MedianRTT >= res.Independent.MedianRTT {
		t.Fatalf("aggregate did not reduce delay: %v vs %v",
			res.Group.MedianRTT, res.Independent.MedianRTT)
	}
	if res.Group.Fairness < 0.95 || res.Independent.Fairness < 0.9 {
		t.Fatalf("fairness: group=%.3f independent=%.3f",
			res.Group.Fairness, res.Independent.Fairness)
	}
	if res.Group.Utilization < 0.6 {
		t.Fatalf("aggregate utilization %.3f", res.Group.Utilization)
	}
}
