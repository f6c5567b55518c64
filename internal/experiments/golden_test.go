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
// ablation-chaos's and ablation-foldvec's moved last when every frame began
// to end with a CRC-32C, which refuses a corrupted frame, and to carry its
// SID and sequence numbers as uvarints, which changed its byte counts
// (EXPERIMENTS.md has what moved each time, row by row).
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
	{"ablation-fallback", func() fmt.Stringer { return AblFallback() }, "f7bd5651297e112e4906d489336476d56428874bfd7160068665d0dbb11da976"},
	{"ablation-urgent", func() fmt.Stringer { return AblUrgent() }, "daf26d0867c52e038cacc4dacc9752eaefeb1660040be7caf96a4b8c35924af4"},
	{"ablation-chaos", func() fmt.Stringer { return AblChaos() }, "06f185c88c735f9a53525ddcf590b35a144eefb6fa78b91168e797ac06f016be"},
	{"ablation-agentchaos", func() fmt.Stringer { return AblAgentChaos() }, "de3acd1258611d1310900c6b76878b67a4203cf807f530a0c18568419245f68f"},
	{"ablation-ha", func() fmt.Stringer { return AblHA() }, "56c3cd77de7966b056f7315eded9f73550fd830127a9abc52046f8fbb8affa7d"},
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
