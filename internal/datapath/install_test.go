package datapath_test

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
	"github.com/ccp-repro/ccp/internal/lang/randprog"
	"github.com/ccp-repro/ccp/internal/netsim"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/tcp"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// countFold is a fold that verifies clean; init seeds its one register.
func countFold(init float64) *lang.FoldSpec {
	return &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "acked", Init: init}},
		Updates: []lang.Assign{{Dst: "acked", E: lang.Add(lang.V("acked"), lang.V("pkt.acked"))}},
	}
}

// shapedFold is countFold with shape written into an update constant: folds
// of different shapes are different measure halves whatever their Inits, so
// each is built and entered in the table, where folds that differ in init
// alone are derived from one another and are not.
func shapedFold(shape int, init float64) *lang.FoldSpec {
	return &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "acked", Init: init}},
		Updates: []lang.Assign{{Dst: "acked",
			E: lang.Add(lang.V("acked"), lang.Min(lang.V("pkt.acked"), lang.C(float64(1+shape))))}},
	}
}

func countProg(fold *lang.FoldSpec, cwnd lang.Expr) *lang.Program {
	return lang.NewProgram().MeasureFold(fold).Cwnd(cwnd).WaitRtts(1).Report().MustBuild()
}

// algPrograms returns the wire bytes of every program the named bundled
// algorithm installs when a flow starts.
func algPrograms(t testing.TB, name string) [][]byte {
	t.Helper()
	for _, info := range algorithms.All() {
		if info.Name != name {
			continue
		}
		described, _ := core.Describe(info.Factory, 1448)
		var out [][]byte
		for _, p := range described {
			data, err := lang.MarshalProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data)
		}
		if len(out) > 0 {
			return out
		}
	}
	t.Fatalf("algorithm %q installs no program", name)
	return nil
}

// deliver sends an Install and returns the InstallErr reason it drew ("" if
// it was installed).
func deliver(t *testing.T, r *rig, data []byte) string {
	t.Helper()
	before, sent := r.dp.Stats().InstallsRecvd, len(r.sent)
	r.dp.Deliver(&proto.Install{SID: 1, Prog: data})
	if r.dp.Stats().InstallsRecvd == before+1 {
		return ""
	}
	for _, m := range r.sent[sent:] {
		if e, ok := m.(*proto.InstallErr); ok {
			return e.Reason
		}
	}
	t.Fatal("Install neither applied nor answered with InstallErr")
	return ""
}

// TestArtifactHitStillVerifies: knowing a program's measure half buys no
// trust in its control half. Each bad control half is refused on the hit
// path with the check a cold install names, and the good program stays in
// force.
func TestArtifactHitStillVerifies(t *testing.T) {
	datapath.ResetArtifacts()
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	fold := countFold(0)
	if reason := deliver(t, r, marshal(t, countProg(fold, lang.C(14480)))); reason != "" {
		t.Fatalf("good program refused: %s", reason)
	}
	good := r.dp.Program()
	if st := r.dp.Stats(); st.InstallArtifactMisses != 1 || st.InstallArtifactHits != 0 {
		t.Fatalf("first install: %+v", st)
	}

	undeclared := *countProg(fold, lang.C(14480))
	undeclared.Instrs = append([]lang.Instr{lang.SetRate{E: lang.V("nosuch")}}, undeclared.Instrs...)
	for _, tc := range []struct {
		name string
		prog *lang.Program
		want string
	}{
		{"window out of bounds", countProg(fold, lang.C(1<<40)), absint.CheckBounds},
		{"NaN window", countProg(fold, lang.C(math.NaN())), absint.CheckNaNWrite},
		{"undeclared register", &undeclared, `unknown variable "nosuch"`},
	} {
		hits := r.dp.Stats().InstallArtifactHits
		reason := deliver(t, r, marshal(t, tc.prog))
		if !strings.Contains(reason, tc.want) {
			t.Errorf("%s: refused with %q, want %q", tc.name, reason, tc.want)
		}
		if r.dp.Stats().InstallArtifactHits != hits+1 {
			t.Errorf("%s: did not take the hit path: %+v", tc.name, r.dp.Stats())
		}
		if r.dp.Program() != good {
			t.Fatalf("%s: refused program displaced the good one", tc.name)
		}
	}

	// One Init moved: a different measure half, so a miss.
	misses := r.dp.Stats().InstallArtifactMisses
	if reason := deliver(t, r, marshal(t, countProg(countFold(1), lang.C(14480)))); reason != "" {
		t.Fatalf("program with a moved Init refused: %s", reason)
	}
	if r.dp.Stats().InstallArtifactMisses != misses+1 {
		t.Fatalf("moved Init was not a miss: %+v", r.dp.Stats())
	}
}

// TestRefusedFoldNeverStored: a measure half the verifier refuses is rebuilt
// and refused every time; nothing of it enters the table.
func TestRefusedFoldNeverStored(t *testing.T) {
	datapath.ResetArtifacts()
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	stored := datapath.StoredArtifacts() // the default program's
	bad := &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "q", Init: 0}},
		Updates: []lang.Assign{{Dst: "q", E: lang.Div(lang.V("pkt.acked"), lang.V("pkt.rtt"))}},
	}
	data := marshal(t, countProg(bad, lang.C(14480)))
	for i := 1; i <= 3; i++ {
		if reason := deliver(t, r, data); !strings.Contains(reason, absint.CheckDivZero) {
			t.Fatalf("offer %d: refused with %q, want %s", i, reason, absint.CheckDivZero)
		}
		if st := r.dp.Stats(); st.InstallArtifactMisses != i || st.InstallArtifactHits != 0 {
			t.Fatalf("offer %d: %+v", i, st)
		}
	}
	if got := datapath.StoredArtifacts(); got != stored {
		t.Fatalf("table grew from %d to %d artifacts on refused folds", stored, got)
	}
}

// TestNonCanonicalSpellingsReachInstallErr: a program spelled the long way —
// by a peer built from other source, or by a corrupted frame — is refused at
// the flow in the decoder's own words, which name the spelling, and changes
// nothing: the program in force stays and the table learns no key. The one
// format a build speaks is the one it accepts.
func TestNonCanonicalSpellingsReachInstallErr(t *testing.T) {
	for _, tc := range randprog.NonCanonical() {
		datapath.ResetArtifacts()
		f := newBareFlow()
		before := f.dp.Program()
		reason := f.deliver(tc.Data)
		if tc.Err == "" {
			if reason != "" {
				t.Errorf("%s: refused: %s", tc.Name, reason)
			}
			continue
		}
		if !strings.Contains(reason, tc.Err) {
			t.Errorf("%s: InstallErr says %q, want %q", tc.Name, reason, tc.Err)
		}
		if f.dp.Program() != before || datapath.StoredArtifacts() != 0 || f.dp.Stats().InstallRejects != 1 {
			t.Errorf("%s: the refusal left a trace: %d artifacts stored, %+v", tc.Name, datapath.StoredArtifacts(), f.dp.Stats())
		}
	}
}

// TestArtifactEvictionKeepsFlowsRunning: a full table evicts the oldest
// artifact, but the flow running it holds its own reference — it keeps
// folding, reporting and re-installing against it.
func TestArtifactEvictionKeepsFlowsRunning(t *testing.T) {
	datapath.ResetArtifacts()
	r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	r.flow.Conn.Start()
	mine := countFold(0.5)
	if reason := deliver(t, r, marshal(t, countProg(mine, lang.C(14480)))); reason != "" {
		t.Fatal(reason)
	}

	// Another flow churns the table past capacity with distinct folds.
	other := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	other.flow.Conn.Start()
	for i := 0; i < datapath.ArtifactCap+8; i++ {
		if reason := deliver(t, other, marshal(t, countProg(shapedFold(i, 0), lang.C(14480)))); reason != "" {
			t.Fatal(reason)
		}
	}
	if got := datapath.StoredArtifacts(); got != datapath.ArtifactCap {
		t.Fatalf("table holds %d artifacts, capacity %d", got, datapath.ArtifactCap)
	}

	// The evicted artifact is still this flow's: same measure half is a hit
	// without the table, and the fold keeps producing reports.
	hits := r.dp.Stats().InstallArtifactHits
	if reason := deliver(t, r, marshal(t, countProg(mine, lang.C(28960)))); reason != "" {
		t.Fatal(reason)
	}
	if r.dp.Stats().InstallArtifactHits != hits+1 {
		t.Fatalf("re-install after eviction missed: %+v", r.dp.Stats())
	}
	before := r.dp.Stats().ReportsSent
	r.sim.Run(r.sim.Now() + time.Second)
	if r.dp.Stats().ReportsSent <= before {
		t.Fatal("flow stopped reporting after its artifact was evicted")
	}
	if m := r.lastMeasurement(); len(m.Fields) != 1 || m.Fields[0] < 0.5 {
		t.Fatalf("fold report after eviction: %+v", m)
	}

	// A third flow asking for the evicted measure half rebuilds it.
	third := newRig(t, link8(), tcp.Options{}, datapath.Config{})
	third.flow.Conn.Start()
	if reason := deliver(t, third, marshal(t, countProg(mine, lang.C(14480)))); reason != "" {
		t.Fatal(reason)
	}
	if st := third.dp.Stats(); st.InstallArtifactMisses != 1 {
		t.Fatalf("evicted artifact was found: %+v", st)
	}
}

// TestConcurrentFlowsShareArtifact: flows on their own goroutines (as under
// SocketLink) install, step and report against one artifact — one compiled
// fold — at once, and derive their own from it when an Init moves while
// others are stepping it, and each ends exactly where a flow running alone
// ends. The -race lane (make test-race-robust) is the other half of the
// assertion.
func TestConcurrentFlowsShareArtifact(t *testing.T) {
	vegas := algPrograms(t, "vegas")[0]
	progs := append(algPrograms(t, "cubic"), vegas)
	// Back to the shared vegas artifact after every moved base_rtt, so each
	// derivation starts from the one all flows hold.
	for k := 1; k <= 3; k++ {
		moved := append([]byte(nil), vegas...)
		setInit(initFields(t, moved)[0], 0.05/float64(k))
		progs = append(progs, moved, vegas)
	}
	run := func() (vars []float64, reports [][]float64) {
		clock := netsim.New(1)
		var conn *tcp.Conn
		dp := datapath.New(datapath.Config{SID: 1, Clock: clock, ToAgent: func(m proto.Msg) error {
			if v, ok := m.(*proto.Measurement); ok {
				reports = append(reports, append([]float64(nil), v.Fields...))
			}
			return nil
		}})
		conn = tcp.NewConn(clock, 1, nil, dp, tcp.Options{MSS: 1448})
		dp.Init(conn)
		for round := 0; round < 20; round++ {
			dp.Deliver(&proto.Install{SID: 1, Prog: progs[round%len(progs)]})
			for i := 0; i < 32; i++ {
				dp.OnAck(conn, tcp.AckSample{
					RTT: time.Duration(10+i%7) * time.Millisecond, AckedBytes: 1448,
					SndRate: 1e6, DeliveryRate: 1e6, InFlight: 14480, Now: clock.Now(),
				})
			}
			clock.Run(clock.Now() + 200*time.Millisecond)
		}
		return append([]float64(nil), dp.Vars()...), reports
	}
	datapath.ResetArtifacts()
	wantVars, wantReports := run()
	if len(wantReports) == 0 {
		t.Fatal("reference flow sent no reports")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vars, reports := run()
			if len(reports) != len(wantReports) || len(vars) != len(wantVars) {
				t.Errorf("%d reports, %d vars; alone %d, %d", len(reports), len(vars), len(wantReports), len(wantVars))
				return
			}
			for i := range reports {
				for j := range reports[i] {
					if math.Float64bits(reports[i][j]) != math.Float64bits(wantReports[i][j]) {
						t.Errorf("report %d field %d: %v, alone %v", i, j, reports[i][j], wantReports[i][j])
						return
					}
				}
			}
			for i := range vars {
				if math.Float64bits(vars[i]) != math.Float64bits(wantVars[i]) {
					t.Errorf("vars[%d]: %v, alone %v", i, vars[i], wantVars[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// installKinds are the four ways an Install finds its artifact, as
// BenchmarkInstall and the TestAllocs pins below provoke them.
const (
	warmInstall      = "warm"       // measure half known: the per-report path
	byRefInstall     = "by-ref"     // the same, the half named by its epoch and not sent: the per-report path since Install by reference
	coldInstall      = "cold"       // table and flow reference emptied first: the first Install of a fold in a process
	movedInitInstall = "moved-init" // register 0's Init differs from the running program's: Vegas's base_rtt improved
)

// installer returns a flow already running the named bundled algorithm's
// program and a function that delivers the i-th further Install of the kind.
func installer(tb testing.TB, alg, kind string) (*datapath.CCP, func(i int)) {
	datapath.ResetArtifacts()
	data := algPrograms(tb, alg)[0]
	f := newBareFlow()
	if reason := f.deliverSeq(1, data); reason != "" {
		tb.Fatalf("%s: program refused: %s", alg, reason)
	}
	var init0 []byte
	if kind == movedInitInstall {
		init0 = initFields(tb, data)[0]
	}
	msg := &proto.Install{SID: 1, Prog: data}
	if kind == byRefInstall {
		_, ctrl := halves(tb, data)
		msg.Prog = lang.AppendRef(nil, 1, ctrl)
	}
	return f.dp, func(i int) {
		switch kind {
		case coldInstall:
			datapath.ResetArtifacts()
			f.dp.ForgetArtifact()
		case movedInitInstall:
			setInit(init0, 1/float64(i+2))
		}
		f.dp.Deliver(msg)
	}
}

// installAllocs measures one Install of the kind and checks that every one
// of them found its artifact the way the kind says.
func installAllocs(t *testing.T, alg, kind string) float64 {
	t.Helper()
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	dp, deliver := installer(t, alg, kind)
	i := 0
	allocs := testing.AllocsPerRun(200, func() { deliver(i); i++ })
	st := dp.Stats()
	if st.InstallRejects != 0 || st.InstallsRecvd != 1+i {
		t.Fatalf("%s %s: installs refused: %+v", alg, kind, st)
	}
	wantHits, wantByRef := 0, 0
	if kind == warmInstall || kind == byRefInstall {
		wantHits = i
	}
	if kind == byRefInstall {
		wantByRef = i
	}
	if st.InstallArtifactHits != wantHits || st.InstallsByRef != wantByRef {
		t.Fatalf("%s %s: %d hits, %d by reference, want %d, %d: %+v", alg, kind, st.InstallArtifactHits, st.InstallsByRef, wantHits, wantByRef, st)
	}
	t.Logf("%s: %s Install: %.1f allocs", alg, kind, allocs)
	return allocs
}

// TestAllocsWarmInstall pins what an Install costs once its measure half is
// known — the paper's per-report path: decode, validate, verify and compile
// the control half, plus activation. The bounds are the measured counts, and
// all but the verifier's (its analyzer, its report and, for cubic, a finding)
// are kept by the flow: four for the decoded instructions, one for the
// Program, three for the compiled control half (codes, instructions,
// constants).
//
// By reference it is the same Install with the measure half found by an
// integer compare: no allocation more than the warm one's.
func TestAllocsWarmInstall(t *testing.T) {
	for alg, max := range map[string]float64{"cubic": 11, "vegas": 10} {
		warm := installAllocs(t, alg, warmInstall)
		if warm > max {
			t.Errorf("%s: warm Install allocated %.1f times, want <= %.0f", alg, warm, max)
		}
		if byRef := installAllocs(t, alg, byRefInstall); byRef > warm {
			t.Errorf("%s: Install by reference allocated %.1f times, the warm one %.1f", alg, byRef, warm)
		}
	}
}

// TestAllocsMovedInitInstall pins the Install on which Vegas's base_rtt
// improved: the warm nine, five for the derived artifact (itself, its key,
// the register list, the spec and the compiled-fold header that point at the
// shared updates and code) and ten for the re-run AnalyzeMeasure (invariant,
// names, resolver, analyzer, report, two states, read-by-fold). Nothing is
// decoded or compiled again.
func TestAllocsMovedInitInstall(t *testing.T) {
	if allocs := installAllocs(t, "vegas", movedInitInstall); allocs > 24 {
		t.Errorf("moved-Init Install allocated %.1f times, want <= 24", allocs)
	}
}

// TestAllocsColdInstall pins the first Install of a fold in a process, the
// build the other two paths avoid. The measured counts: it is where a
// regression in the decoder, the verifier or the compilers shows.
func TestAllocsColdInstall(t *testing.T) {
	for alg, max := range map[string]float64{"cubic": 70, "vegas": 76} {
		if allocs := installAllocs(t, alg, coldInstall); allocs > max {
			t.Errorf("%s: cold Install allocated %.1f times, want <= %.0f", alg, allocs, max)
		}
	}
}

// BenchmarkInstall times Deliver(Install) of the bundled cubic and vegas
// programs, each way an Install finds its artifact.
func BenchmarkInstall(b *testing.B) {
	for _, alg := range []string{"cubic", "vegas"} {
		kinds := []string{warmInstall, byRefInstall, coldInstall}
		if alg == "vegas" {
			kinds = append(kinds, movedInitInstall)
		}
		for _, kind := range kinds {
			b.Run(alg+"/"+kind, func(b *testing.B) {
				dp, deliver := installer(b, alg, kind)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					deliver(i)
				}
				if dp.Stats().InstallRejects != 0 {
					b.Fatalf("refused: %+v", dp.Stats())
				}
			})
		}
	}
}

// TestArtifactTableKeepsSharedHalves: clock eviction. A measure half that
// new flows keep asking for outlives any number of one-flow halves passing
// through the table.
func TestArtifactTableKeepsSharedHalves(t *testing.T) {
	datapath.ResetArtifacts()
	shared := marshal(t, countProg(countFold(0.25), lang.C(14480)))
	newFlow := func() *rig {
		r := newRig(t, link8(), tcp.Options{}, datapath.Config{})
		r.flow.Conn.Start()
		return r
	}
	if reason := deliver(t, newFlow(), shared); reason != "" {
		t.Fatal(reason)
	}
	churner := newFlow()
	for i := 0; i < 4*datapath.ArtifactCap; i++ {
		if reason := deliver(t, churner, marshal(t, countProg(shapedFold(i, 0), lang.C(14480)))); reason != "" {
			t.Fatal(reason)
		}
		if i%4 == 3 {
			r := newFlow()
			if reason := deliver(t, r, shared); reason != "" {
				t.Fatal(reason)
			}
			if st := r.dp.Stats(); st.InstallArtifactHits != 1 || st.InstallArtifactMisses != 0 {
				t.Fatalf("after %d one-flow halves the shared one was gone: %+v", i+1, st)
			}
		}
	}
}
