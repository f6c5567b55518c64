package algorithms_test

import (
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/harness"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// TestInstallsByReferenceShare drives the algorithms that install programs
// through a real datapath for at least 200 reports each and logs what share
// of their Installs crossed by reference — the figure EXPERIMENTS.md quotes.
// The form is chosen from the bytes, so the shares follow from how each
// algorithm uses its measure half: one fold or field list for the life of
// the flow goes by reference after the first Install; Vegas goes whole each
// time its base_rtt estimate (a register's Init) improves; an EWMA-mode
// program has no reference form. No reference may be refused on a channel
// that loses nothing.
func TestInstallsByReferenceShare(t *testing.T) {
	for _, tc := range []struct {
		alg      string
		min, max float64
	}{
		{"cubic", 0.99, 1},
		{"vegas", 0.90, 0.999},
		{"vegas-vector", 0.99, 1},
		{"dctcp", 0.99, 1},
		{"aimd-dp", 0, 0}, // one Install for the life of the flow
		{"bbr", 0, 0},
	} {
		net := harness.New(harness.Config{Link: wan16(), DefaultAlg: "reno"})
		f := net.AddCCPFlow(1, tc.alg, tcp.Options{ECN: tc.alg == "dctcp"})
		f.Conn.Start()
		reports := func() int64 { s := net.Agent.Stats().Agent; return s.Measurements + s.Vectors }
		for dur := 5 * time.Second; reports() < 200 && dur <= 60*time.Second; dur += 5 * time.Second {
			net.Run(dur)
		}
		dp, agent := f.DP.Stats(), net.Agent.Stats().Agent
		if reports() < 200 || dp.InstallsRecvd == 0 {
			t.Fatalf("%s: %d reports, %d installs", tc.alg, reports(), dp.InstallsRecvd)
		}
		if dp.InstallRejects != 0 || dp.RefRefusals != 0 || agent.InstallErrs != 0 || agent.RefResends != 0 {
			t.Errorf("%s: an install was refused on a clean channel: %+v", tc.alg, dp)
		}
		if int64(dp.InstallsByRef) != agent.InstallsByRef {
			t.Errorf("%s: the agent sent %d installs by reference, the datapath applied %d", tc.alg, agent.InstallsByRef, dp.InstallsByRef)
		}
		share := float64(dp.InstallsByRef) / float64(dp.InstallsRecvd)
		t.Logf("%-12s %4d reports, %4d installs, %4d by reference (%.1f%%)", tc.alg, reports(), dp.InstallsRecvd, dp.InstallsByRef, share*100)
		if share < tc.min || share > tc.max {
			t.Errorf("%s: %.1f%% of installs by reference, want %.0f%%..%.0f%%", tc.alg, share*100, tc.min*100, tc.max*100)
		}
	}
}
