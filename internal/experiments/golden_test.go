package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// golden is the SHA-256 of what `ccp-sim -experiment <id>` prints (the
// result's String(), with ccp-sim's default configuration) for every
// deterministic experiment that finishes in seconds. "The simulator's output
// is byte-identical" is this test, not a hand-run diff: a change that is
// meant to leave the simulated control loop alone leaves this table alone,
// and a change that is meant to move an experiment regenerates its row (the
// failure message prints the new digest) and says why.
//
// Left out: fig5 and ablation-lowrtt (minutes). ablation-ha and
// ablation-agentchaos are pinned whole, slow-agent cells included: each runs
// in about 1–2 s. Budget: 90 s in total. Measured on two cores: 23–32 s
// (fig3 9–15 s, ext-synthesis 4–5 s, ablation-ha about 2 s), and 76 s inside
// a `make check` on a busy box. Skipped under -short; `make test-golden` is
// its lane in `make check`.
//
// The digests were generated at commit 1ba1ba0, the parent of the PR that
// put runtime.Runtime under the harness; ablation-fallback's at the PR that
// left the datapath one watchdog; ablation-chaos's and ablation-agentchaos's
// at the PR that put both fault layers in every deployment, which deleted
// the transparency line each printed under its table. Their tables moved
// when Installs began to cross by reference, where a lost or stale whole
// Install costs the references behind it too, and, with ablation-ha's, when
// a flow built cold from a resync Create began numbering its decisions
// ctrlSeqSkip above the Create's Seq; ablation-chaos's, ablation-agentchaos's
// and ablation-foldvec's moved when every report began to carry its
// program's epoch, a byte or more on the wire, by which the agent names it.
// ablation-chaos's and ablation-foldvec's moved when every frame began
// to end with a CRC-32C, which refuses a corrupted frame, and to carry its
// SID and sequence numbers as uvarints, which changed its byte counts
// (EXPERIMENTS.md has what moved each time, row by row); ablation-chaos's
// when the fault layer began to count a corrupted message once per delivered
// copy whose bytes changed; and ablation-fallback's, ablation-chaos's,
// ablation-agentchaos's and ablation-ha's when the staleness watchdog began
// to probe the agent on every tick, so that leaving fallback always needs a
// healthy probe score.
// ablation-chaos-seeds is ablation-chaos at seeds 1–10 with each rate's
// median, so a change that moves one seed's table also shows how far the
// sweep moved.
var golden = []struct {
	id     string
	run    func() fmt.Stringer
	sha256 string
}{
	{"table1", func() fmt.Stringer { return Table1() }, "ceb9e5b799a4cba3fe3f9aad8aec17ce323856ce77d0eb42f028539907350fec"},
	{"table2", func() fmt.Stringer { return Table2() }, "1c82676b3cb928dca1f6f2ac0ce557bae65479d14bde99b2608ade1b713aadd8"},
	{"table3", func() fmt.Stringer { return Table3() }, "f135fb0a0b23be4586e5ec2c5cfb17f73405a8d265e0330d894a4dbeafec0419"},
	{"fig3", func() fmt.Stringer { return Fig3(Fig3Config{RateBps: 1e9}) }, "100c671d59f159baeaf5af79dedc9367fd174c76d652b9ec96eb985a85ba97d5"},
	{"fig4", func() fmt.Stringer { return Fig4(Fig4Config{RateBps: 96e6}) }, "69761eddf48e34fe44e3088f3b03aa72d4ce06da48a0f0498c7301a6f6b5f946"},
	{"ablation-batching", func() fmt.Stringer { return AblBatching() }, "4a603912e95aa50dc1271832008eab2315355414aa86ead8cd3cf8d0dc0f31c3"},
	{"ablation-foldvec", func() fmt.Stringer { return AblFoldVec() }, "dfcc843549442c53be342ba8c52c4240c7a8e7b39b9546e2a88bbe4c9b61b3a2"},
	{"ablation-fallback", func() fmt.Stringer { return AblFallback() }, "4d81e19dccf09e1e106c75e6f00a48adc7b8ed8df4e4a606eecfaa5440df0003"},
	{"ablation-urgent", func() fmt.Stringer { return AblUrgent() }, "daf26d0867c52e038cacc4dacc9752eaefeb1660040be7caf96a4b8c35924af4"},
	{"ablation-chaos", func() fmt.Stringer { return AblChaos() }, "8395bb3b3aa500df7c52cd2f15cad54925edbb796bc164d629429ae6ed1d3280"},
	{"ablation-agentchaos", func() fmt.Stringer { return AblAgentChaos() }, "6806e22cebbf765d4c39169f95cd0ecfecf3cead48485f44a2d89a9dda5613c0"},
	{"ablation-ha", func() fmt.Stringer { return AblHA() }, "f9e9d599c0b5c5219d6ee76a56fbf04cdfed1a0691373d28fa3d0db1a391d832"},
	{"ablation-chaos-seeds", func() fmt.Stringer { return chaosSeeds() }, "255c5dc2a69a6bf521cafb9ac074e68d78639be98729ccd89b75dcb077f72dd0"},
	{"ext-smooth", func() fmt.Stringer { return AblSmooth() }, "6829cb2ec95e6825ae32f651b69b0b1a694257045815b02890318039d049a4d6"},
	{"ext-synthesis", func() fmt.Stringer { return AblSynthesis() }, "e0e036a9d73fd71578d6af7604d5b84ebc7d79f9c982754d84a43b8e28786f85"},
	{"ext-group", func() fmt.Stringer { return AblGroup() }, "0b958bf5b47d746ef62fbbde26ef3a01954839f70a65325afbd678f88a7a5924"},
}

// chaosSeeds renders ablation-chaos at seeds 1–10 and, per rate, the median
// of the ten utilizations as the tables print them. One seed's table moves
// with any change to the channel's timing; the medians say by how much the
// sweep as a whole moved.
func chaosSeeds() fmt.Stringer {
	var b strings.Builder
	var rates []float64
	var utils [][]float64 // by rate, one per seed
	for seed := int64(1); seed <= 10; seed++ {
		res := ablChaos(seed)
		fmt.Fprintf(&b, "seed %d\n%s\n", seed, res)
		if seed == 1 {
			for _, row := range res.Rows {
				rates = append(rates, row.Rate)
			}
			utils = make([][]float64, len(res.Rows))
		}
		for i, row := range res.Rows {
			utils[i] = append(utils[i], math.Round(row.Utilization*1000)/10)
		}
	}
	b.WriteString("median utilization over seeds 1–10\n")
	for i, rate := range rates {
		fmt.Fprintf(&b, "  %-6.2f %6.2f%%\n", rate, median(utils[i]))
	}
	return &b
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fast experiment at full size")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64's: other targets may fuse multiply-adds and round differently")
	}
	for _, g := range golden {
		t.Run(g.id, func(t *testing.T) {
			out := g.run().String()
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Errorf("output changed: sha256 %s, want %s\n%s", got, g.sha256, out)
			}
		})
	}
}
