package absint_test

import (
	"math"
	"strings"
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
)

// TestRegisteredAlgorithmsVerifyClean is the corpus gate: every Install-time
// program of every bundled algorithm must verify with no install-blocking
// findings under the datapath profile — the same check the datapath runs on
// every Install, so a regression here is a flow that silently keeps its
// previous program in production.
func TestRegisteredAlgorithmsVerifyClean(t *testing.T) {
	for _, info := range algorithms.All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			progs, _ := core.Describe(info.Factory, 1448)
			for i, p := range progs {
				rep, err := absint.Analyze(p, absint.Datapath())
				if err != nil {
					t.Fatalf("program %d: %v", i, err)
				}
				for _, f := range rep.Errors() {
					t.Errorf("program %d: %s", i, f.String())
				}
			}
		})
	}
}

// TestRejectionTable pins the verifier's refusals: each minimal bad program
// must be refused with the right check at the right location. These are the
// programs the Install gate exists to keep out of the datapath.
func TestRejectionTable(t *testing.T) {
	countingFold := &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "acked", Init: 0}},
		Updates: []lang.Assign{{Dst: "acked", E: lang.Add(lang.V("acked"), lang.V("pkt.acked"))}},
	}
	cases := []struct {
		name      string
		prog      *lang.Program
		check     string
		whereKind string // substring of Finding.Where.String()
	}{
		{
			name: "unguarded division",
			prog: lang.NewProgram().
				Rate(lang.Div(lang.C(1e6), lang.V("pkt.rtt"))).
				WaitRtts(1).Report().MustBuild(),
			check:     absint.CheckDivZero,
			whereKind: "instr 0 Rate",
		},
		{
			name: "NaN to cwnd",
			prog: lang.NewProgram().
				Cwnd(lang.C(math.NaN())).
				WaitRtts(1).Report().MustBuild(),
			check:     absint.CheckNaNWrite,
			whereKind: "instr 0 Cwnd",
		},
		{
			name: "unbounded rate",
			prog: lang.NewProgram().
				Rate(lang.Mul(lang.V("rate"), lang.C(2))).
				WaitRtts(1).Report().MustBuild(),
			check:     absint.CheckBounds,
			whereKind: "instr 0 Rate",
		},
		{
			name: "fold with no report",
			prog: lang.NewProgram().
				MeasureFold(countingFold).
				Cwnd(lang.C(14480)).
				WaitRtts(1).MustBuild(),
			check:     absint.CheckNoReport,
			whereKind: "program",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rep, err := absint.Analyze(tc.prog, absint.Datapath())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors()) == 0 {
				t.Fatalf("program accepted; findings: %v", rep.Findings)
			}
			found := false
			for _, f := range rep.Errors() {
				if f.Check == tc.check {
					found = true
					if !strings.Contains(f.Where.String(), tc.whereKind) {
						t.Errorf("finding at %q, want location containing %q", f.Where.String(), tc.whereKind)
					}
				}
			}
			if !found {
				t.Fatalf("no %s error; got %v", tc.check, rep.Errors())
			}
		})
	}
}
