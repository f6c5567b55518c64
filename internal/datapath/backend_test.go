package datapath_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/randprog"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
)

// outcome is everything observable about a flow that was handed a sequence
// of Installs: what it sent (reports, and InstallErr replies with their
// reason text), where the window and rate ended, its counters, its variable
// table and the program left in force.
type outcome struct {
	msgs  []proto.Msg
	cwnd  int
	rate  float64
	stats datapath.Stats
	vars  []float64
	prog  string
}

// runInstalls drives one simulated flow, delivering progs 100 ms apart. A
// cold run empties the artifact table and the flow's own reference before
// every Install, so each one builds its measure half from the bytes, the way
// the first Install in a new process does; a warm run leaves both alone.
func runInstalls(t *testing.T, cfg datapath.Config, cold bool, progs [][]byte) outcome {
	t.Helper()
	datapath.ResetArtifacts()
	r := newRig(t, link8(), tcp.Options{}, cfg)
	r.flow.Conn.Start()
	for i, data := range progs {
		data := data
		r.sim.Schedule(time.Duration(i+1)*100*time.Millisecond, func() {
			if cold {
				datapath.ResetArtifacts()
				r.dp.ForgetArtifact()
			}
			r.dp.Deliver(&proto.Install{SID: 1, Seq: r.next(), Prog: data})
		})
	}
	r.sim.Run(time.Duration(len(progs)+5) * 100 * time.Millisecond)
	return outcome{
		msgs:  r.sent,
		cwnd:  r.flow.Conn.Cwnd(),
		rate:  r.flow.Conn.PacingRate(),
		stats: r.dp.Stats(),
		vars:  append([]float64(nil), r.dp.Vars()...),
		prog:  r.dp.Program().String(),
	}
}

// sameTraffic requires two runs to have sent the same messages, bit for bit,
// and to have ended on the same window and rate.
func sameTraffic(t *testing.T, what string, a, b outcome) {
	t.Helper()
	if a.cwnd != b.cwnd || a.rate != b.rate {
		t.Fatalf("%s: final flow state diverged: cwnd %d vs %d, rate %v vs %v", what, a.cwnd, b.cwnd, a.rate, b.rate)
	}
	if len(a.msgs) != len(b.msgs) {
		t.Fatalf("%s: message counts diverged: %d vs %d", what, len(a.msgs), len(b.msgs))
	}
	for i := range a.msgs {
		am, aOK := a.msgs[i].(*proto.Measurement)
		bm, bOK := b.msgs[i].(*proto.Measurement)
		if aOK != bOK {
			t.Fatalf("%s: msg %d: type diverged: %T vs %T", what, i, a.msgs[i], b.msgs[i])
		}
		if !aOK {
			// InstallErr (Seq and Reason text), Create, Vector, Urgent.
			if !reflect.DeepEqual(a.msgs[i], b.msgs[i]) {
				t.Fatalf("%s: msg %d diverged:\n %+v\n %+v", what, i, a.msgs[i], b.msgs[i])
			}
			continue
		}
		if am.Seq != bm.Seq || len(am.Fields) != len(bm.Fields) {
			t.Fatalf("%s: msg %d: seq/field count diverged: %d/%d vs %d/%d", what, i, am.Seq, len(am.Fields), bm.Seq, len(bm.Fields))
		}
		for j := range am.Fields {
			if math.Float64bits(am.Fields[j]) != math.Float64bits(bm.Fields[j]) {
				t.Fatalf("%s: msg %d field %d: %v (%#x) vs %v (%#x)", what, i, j,
					am.Fields[j], math.Float64bits(am.Fields[j]), bm.Fields[j], math.Float64bits(bm.Fields[j]))
			}
		}
	}
}

// bitIdentical runs progs warm and cold and requires the two
// indistinguishable in every observable (traffic, counters, variable table,
// program), with the warm run having reused artifacts and the cold run having
// built every one. The simulator is deterministic, so the only possible source
// of divergence is the install path.
func bitIdentical(t *testing.T, progs [][]byte, wantHits bool) {
	t.Helper()
	warm := runInstalls(t, datapath.Config{}, false, progs)
	cold := runInstalls(t, datapath.Config{}, true, progs)
	const what = "warm vs cold"
	sameTraffic(t, what, warm, cold)
	if warm.stats.Deterministic() != cold.stats.Deterministic() {
		t.Fatalf("%s: stats diverged:\n %+v\n %+v", what, warm.stats, cold.stats)
	}
	if len(warm.vars) != len(cold.vars) {
		t.Fatalf("%s: variable tables of %d and %d slots", what, len(warm.vars), len(cold.vars))
	}
	for j := range warm.vars {
		if math.Float64bits(warm.vars[j]) != math.Float64bits(cold.vars[j]) {
			t.Fatalf("%s: vars[%d]: %v vs %v", what, j, warm.vars[j], cold.vars[j])
		}
	}
	if warm.prog != cold.prog {
		t.Fatalf("%s: program in force diverged:\n %s\n %s", what, warm.prog, cold.prog)
	}
	if cold.stats.InstallArtifactHits != 0 {
		t.Fatalf("cold run reused %d artifacts", cold.stats.InstallArtifactHits)
	}
	if wantHits && warm.stats.InstallArtifactHits == 0 {
		t.Fatalf("warm run never reused an artifact: %+v", warm.stats)
	}
}

func marshal(t *testing.T, p *lang.Program) []byte {
	t.Helper()
	data, err := lang.MarshalProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBackendsBitIdentical is the differential harness for the two ways an
// Install can find its measure half: built from the bytes, or known already.
// (Its name dates from when it also ran every sequence on a second VM.)
func TestBackendsBitIdentical(t *testing.T) {
	t.Run("fold", func(t *testing.T) {
		fold := &lang.FoldSpec{
			Regs: []lang.RegDef{
				{Name: "base_rtt", Init: 1e9},
				{Name: "s_rtt", Init: 0},
				{Name: "acked", Init: 0},
			},
			Updates: []lang.Assign{
				{Dst: "base_rtt", E: lang.Min(lang.V("base_rtt"), lang.V("pkt.rtt"))},
				{Dst: "s_rtt", E: lang.Add(lang.Mul(lang.C(0.875), lang.V("s_rtt")), lang.Mul(lang.C(0.125), lang.V("pkt.rtt")))},
				{Dst: "acked", E: lang.Add(lang.V("acked"), lang.V("pkt.acked"))},
			},
		}
		var progs [][]byte
		// The paper's shape: the same fold every time, one constant moving.
		for i := 0; i < 10; i++ {
			progs = append(progs, marshal(t, lang.NewProgram().
				MeasureFold(fold).
				Cwnd(lang.Min(lang.Add(lang.V("cwnd"), lang.Ite(
					lang.Gt(lang.V("pkt.lost"), lang.C(0)),
					lang.C(0),
					lang.Mul(lang.C(float64(i)), lang.V("mss")))), lang.C(1<<30))).
				WaitRtts(1).
				Report().
				MustBuild()))
		}
		bitIdentical(t, progs, true)
	})

	// Every Install-time program of every bundled algorithm, each delivered
	// twice so the second finds the first's artifact.
	for _, info := range algorithms.All() {
		info := info
		t.Run("alg/"+info.Name, func(t *testing.T) {
			described, _ := core.Describe(info.Factory, 1448)
			var progs [][]byte
			for _, p := range described {
				data := marshal(t, p)
				progs = append(progs, data, data)
			}
			if len(progs) == 0 {
				t.Skip("algorithm installs no program")
			}
			bitIdentical(t, progs, true)
		})
	}

	// Random install sequences: random programs, repeats, and programs that
	// put one program's instructions behind another's measure half (valid or
	// not — a refusal's reason text must match too). Most random programs
	// are refused, so hits are not required.
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("random/%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var pool []*lang.Program
			for len(pool) < 5 {
				if p := randprog.Program(rng); p.Validate() == nil {
					pool = append(pool, p)
				}
			}
			var progs [][]byte
			for i := 0; i < 16; i++ {
				p := pool[rng.Intn(len(pool))]
				if rng.Intn(3) == 0 {
					q := *p
					q.Instrs = pool[rng.Intn(len(pool))].Instrs
					p = &q
				}
				progs = append(progs, marshal(t, p))
			}
			bitIdentical(t, progs, false)
		})
	}
}
