package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestAblAgentChaosKillShape(t *testing.T) {
	// The acceptance scenario: agent killed mid-run, a flow born during the
	// outage. With the fail-safe layer the flow must hold >= 80% utilization
	// and return to full CCP control after the restart; without it the flow
	// is demonstrably stalled at InitCwnd (~24% on this link), including
	// after the restart (nothing re-announces it).
	on := runAgentChaos("kill", true)
	if on.UtilDuring < 0.80 {
		t.Fatalf("fallback-on util during outage %.1f%% < 80%%", on.UtilDuring*100)
	}
	if on.UtilAfter < 0.80 {
		t.Fatalf("fallback-on util after recovery %.1f%% < 80%%", on.UtilAfter*100)
	}
	if on.FallbackOn < 1 || on.FallbackOff < 1 {
		t.Fatalf("fallback transitions on=%d off=%d, want >=1 each", on.FallbackOn, on.FallbackOff)
	}
	if on.HandoffRamps < 1 {
		t.Fatalf("no handoff ramp on fallback exit")
	}
	if on.Resyncs == 0 {
		t.Fatal("no resync Creates while degraded")
	}
	if on.AgentFlowsCreated < 1 {
		t.Fatal("restarted agent never adopted the mid-outage flow")
	}
	if on.InstallsRecvd < 1 {
		t.Fatal("recovered agent installed nothing: CCP control not restored")
	}

	off := runAgentChaos("kill", false)
	if off.UtilDuring > 0.40 {
		t.Fatalf("fallback-off util during outage %.1f%%: expected a stall", off.UtilDuring*100)
	}
	if off.UtilAfter > 0.40 {
		t.Fatalf("fallback-off util after restart %.1f%%: flow should stay stranded", off.UtilAfter*100)
	}
	if off.FallbackOn != 0 {
		t.Fatalf("fallback engaged %d times with the layer disabled", off.FallbackOn)
	}
}

func TestAblAgentChaosPauseRecovers(t *testing.T) {
	// A paused (not killed) agent holds messages; resume replays them, so
	// even without the fail-safe layer the flow eventually recovers — but
	// only after the resume, which is the behavioural difference between
	// "stalled until healed" and "degraded but serviceable" the fail-safe
	// provides.
	on := runAgentChaos("pause", true)
	if on.UtilDuring < 0.80 {
		t.Fatalf("fallback-on util during pause %.1f%% < 80%%", on.UtilDuring*100)
	}
	off := runAgentChaos("pause", false)
	if off.UtilDuring > 0.40 {
		t.Fatalf("fallback-off util during pause %.1f%%: expected a stall", off.UtilDuring*100)
	}
	if off.UtilAfter < 0.80 {
		t.Fatalf("fallback-off util after resume %.1f%%: held Create should revive the flow", off.UtilAfter*100)
	}
	if off.Inj.Held == 0 || off.Inj.Replayed == 0 {
		t.Fatalf("pause held/replayed nothing: held=%d replayed=%d", off.Inj.Held, off.Inj.Replayed)
	}
}

func TestAblAgentChaosDeterministic(t *testing.T) {
	a := runAgentChaos("kill", true)
	b := runAgentChaos("kill", true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("agent-chaos run not deterministic:\n a: %+v\n b: %+v", a, b)
	}
}

func TestAblAgentChaosStringRenders(t *testing.T) {
	r := AblAgentChaosResult{
		Scenarios: []AgentChaosScenario{{Fault: "kill", Fallback: true, UtilDuring: 0.97}},
	}
	out := r.String()
	for _, want := range []string{"agent chaos", "kill", "97.0%", "on"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}
