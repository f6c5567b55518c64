package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
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
// Left out: fig2 (wall-clock), fig5 and ablation-lowrtt (minutes), and the
// slow-agent cells of ablation-ha and ablation-agentchaos that take 18–52 s
// each (`slow`×{none, fallback} and `slow`×failsafe-off); those two
// experiments are pinned by their remaining cells, rendered by the same
// String(). Budget: 30 s in total; about 20 s measured (fig3 7 s, the
// ablation-agentchaos scenarios 5 s, ext-synthesis 4 s).
//
// The digests were generated at commit 1ba1ba0, the parent of the PR that
// put runtime.Runtime under the harness; ablation-fallback's at the PR that
// left the datapath one watchdog; ablation-chaos's and ablation-agentchaos's
// at the PR that sent Installs by reference, where a lost or stale whole
// Install now costs the references behind it too (EXPERIMENTS.md has what
// moved each time, row by row; the other 15 did not move either time).
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
	{"ablation-foldvec", func() fmt.Stringer { return AblFoldVec() }, "7813b7cd221c2144fea4e4c6fbb1ff017b92b375a40a048938c401ff636f8a72"},
	{"ablation-fallback", func() fmt.Stringer { return AblFallback() }, "f7bd5651297e112e4906d489336476d56428874bfd7160068665d0dbb11da976"},
	{"ablation-urgent", func() fmt.Stringer { return AblUrgent() }, "daf26d0867c52e038cacc4dacc9752eaefeb1660040be7caf96a4b8c35924af4"},
	{"ablation-chaos", func() fmt.Stringer { return AblChaos() }, "6e3a065117054a6277e548853995279a8295906e737326d9d6b3f45926765255"},
	{"ablation-agentchaos-5of6", func() fmt.Stringer {
		res := AblAgentChaosResult{BaselineMatches: agentChaosBaselineMatches()}
		for _, fault := range []string{"kill", "pause", "slow"} {
			for _, fb := range []bool{true, false} {
				if fault != "slow" || fb {
					res.Scenarios = append(res.Scenarios, runAgentChaos(fault, fb))
				}
			}
		}
		return res
	}, "512d0a07fece9960bed41f72087fe0c4859cfb9ec2b47096ac9e561f497c0033"},
	{"ablation-ha-7of9", func() fmt.Stringer {
		var res AblHAResult
		for _, fault := range []string{"kill", "pause", "slow"} {
			for _, mode := range []string{"none", "fallback", "warm"} {
				if fault != "slow" || mode == "warm" {
					res.Cells = append(res.Cells, runHACell(fault, mode))
				}
			}
		}
		return res
	}, "824aff2aeb0dbb54b71af3a9b7dab38b9a4b8612d2a344873babe56d61ab8910"},
	{"ext-smooth", func() fmt.Stringer { return AblSmooth() }, "6829cb2ec95e6825ae32f651b69b0b1a694257045815b02890318039d049a4d6"},
	{"ext-synthesis", func() fmt.Stringer { return AblSynthesis() }, "e0e036a9d73fd71578d6af7604d5b84ebc7d79f9c982754d84a43b8e28786f85"},
	{"ext-group", func() fmt.Stringer { return AblGroup() }, "0b958bf5b47d746ef62fbbde26ef3a01954839f70a65325afbd678f88a7a5924"},
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
