package datapath_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
)

// A moved Init is served by deriving the artifact from the one the flow runs
// (install.go). These tests hold the derivation to the build it replaces.

// initFields returns the eight-byte Init field of every register in data, a
// fold program's wire bytes. Writing one with setInit is what Vegas does when
// its base_rtt estimate improves.
func initFields(t testing.TB, data []byte) [][]byte {
	t.Helper()
	_, inits, err := lang.MeasureInits(data)
	if err != nil {
		t.Fatal(err)
	}
	fields := make([][]byte, len(inits))
	for i, off := range inits {
		fields[i] = data[off:][:8]
	}
	return fields
}

func setInit(field []byte, v float64) {
	binary.LittleEndian.PutUint64(field, math.Float64bits(v))
}

// bareFlow is a datapath on an unstarted connection: Installs are delivered
// and ACKs fed by hand, and what it sends is kept.
type bareFlow struct {
	clock   *netsim.Sim
	dp      *datapath.CCP
	conn    *tcp.Conn
	reports [][]float64
	refusal string // Reason of the last InstallErr
}

func newBareFlow() *bareFlow {
	return newBareFlowCfg(datapath.Config{})
}

// newBareFlowCfg is newBareFlow with cfg's settings; SID, Clock and ToAgent
// are the bare flow's own.
func newBareFlowCfg(cfg datapath.Config) *bareFlow {
	f := &bareFlow{clock: netsim.New(1)}
	cfg.SID, cfg.Clock = 1, f.clock
	cfg.ToAgent = func(m proto.Msg) error {
		switch v := m.(type) {
		case *proto.Measurement:
			f.reports = append(f.reports, append([]float64(nil), v.Fields...))
		case *proto.InstallErr:
			f.refusal = v.Reason
		}
		return nil
	}
	f.dp = datapath.New(cfg)
	f.conn = tcp.NewConn(f.clock, 1, nil, f.dp, tcp.Options{MSS: 1448})
	f.dp.Init(f.conn)
	return f
}

// deliver sends an Install and returns the InstallErr reason it drew ("" if
// it was installed).
func (f *bareFlow) deliver(data []byte) string { return f.deliverSeq(0, data) }

// deliverSeq is deliver of a sequenced Install: one that is not stale, and
// whose Seq becomes the flow's epoch if it brings a measure half.
func (f *bareFlow) deliverSeq(seq uint32, data []byte) string {
	f.refusal = ""
	f.dp.Deliver(&proto.Install{SID: 1, Seq: seq, Prog: data})
	return f.refusal
}

// acks feeds n seeded samples, specials included, and lets the timers run.
func (f *bareFlow) acks(seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f.dp.OnAck(f.conn, tcp.AckSample{
			RTT: time.Duration(1+rng.Intn(50)) * time.Millisecond, AckedBytes: rng.Intn(3) * 1448,
			SndRate: rng.Float64() * 1e7, DeliveryRate: rng.Float64() * 1e7,
			InFlight: rng.Intn(64) * 1448, Now: f.clock.Now(),
		})
		if i%16 == 15 {
			f.clock.Run(f.clock.Now() + 50*time.Millisecond)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// initSpecials are the Init values most likely to move a verdict or trip a
// bit-for-bit comparison.
var initSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
	1e-9, 1, -1, 1e9, math.MaxFloat64,
}

func randomInit(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return initSpecials[rng.Intn(len(initSpecials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

// checkDerivedEqualsBuilt installs base on two flows, then offers moved —
// base with other Init values — to both: the first derives it from the
// artifact it runs, the second has been made to forget that artifact and
// finds the table empty, so it builds. Everything observable must agree. It
// returns whether there was anything to compare and how the Install ended.
func checkDerivedEqualsBuilt(t *testing.T, name string, base, moved []byte) (compared, installed bool) {
	t.Helper()
	datapath.ResetArtifacts()
	derived, built := newBareFlow(), newBareFlow()
	if reason := derived.deliver(base); reason != "" {
		return false, false // base itself is refused: nothing to derive from
	}
	if reason := built.deliver(base); reason != "" {
		t.Fatalf("%s: base refused on the second flow only: %s", name, reason)
	}
	before := derived.dp.Program()
	stored := datapath.StoredArtifacts()
	warnD, warnB := derived.dp.Stats().VerifyWarnings, built.dp.Stats().VerifyWarnings
	missD := derived.dp.Stats().InstallArtifactMisses

	reasonD := derived.deliver(moved)
	if !bytes.Equal(base, moved) {
		if got := derived.dp.Stats().InstallArtifactMisses; got != missD+1 {
			t.Fatalf("%s: a moved Init counted %d misses, want 1", name, got-missD)
		}
		if got := datapath.StoredArtifacts(); got != stored {
			t.Fatalf("%s: moved Init was built, not derived: table went from %d to %d", name, stored, got)
		}
	}
	datapath.ResetArtifacts()
	built.dp.ForgetArtifact()
	reasonB := built.deliver(moved)

	if reasonD != reasonB {
		t.Fatalf("%s: derived install: %q\nbuilt install: %q", name, reasonD, reasonB)
	}
	if d, b := derived.dp.Stats().VerifyWarnings-warnD, built.dp.Stats().VerifyWarnings-warnB; d != b {
		t.Fatalf("%s: derived install drew %d warnings, built %d", name, d, b)
	}
	if reasonD != "" {
		if derived.dp.Program() != before {
			t.Fatalf("%s: refused derived install displaced the program in force", name)
		}
		return true, false
	}
	if d, b := derived.dp.Program().String(), built.dp.Program().String(); d != b {
		t.Fatalf("%s: derived runs %s, built runs %s", name, d, b)
	}
	// The rendering does not show Init values; the encoding does, bit for bit.
	for _, f := range []*bareFlow{derived, built} {
		if enc, err := lang.MarshalProgram(f.dp.Program()); err != nil || !bytes.Equal(enc, moved) {
			t.Fatalf("%s: program in force re-encodes to %x (%v), installed %x", name, enc, err, moved)
		}
	}
	if !sameBits(derived.dp.Vars(), built.dp.Vars()) {
		t.Fatalf("%s: vars after activation\nderived %v\nbuilt   %v", name, derived.dp.Vars(), built.dp.Vars())
	}
	derived.acks(7, 96)
	built.acks(7, 96)
	if !sameBits(derived.dp.Vars(), built.dp.Vars()) {
		t.Fatalf("%s: vars after 96 ACKs\nderived %v\nbuilt   %v", name, derived.dp.Vars(), built.dp.Vars())
	}
	if len(derived.reports) != len(built.reports) {
		t.Fatalf("%s: derived sent %d reports, built %d", name, len(derived.reports), len(built.reports))
	}
	for i := range derived.reports {
		if !sameBits(derived.reports[i], built.reports[i]) {
			t.Fatalf("%s: report %d: derived %v, built %v", name, i, derived.reports[i], built.reports[i])
		}
	}
	if d, b := derived.dp.Stats().Deterministic(), built.dp.Stats().Deterministic(); d != b {
		t.Fatalf("%s: stats\nderived %+v\nbuilt   %+v", name, d, b)
	}
	return true, true
}

// TestDerivedEqualsBuilt: for every bundled fold program and a sweep of random
// ones, under Init vectors that include ±0, ±Inf, NaN and subnormals, a flow
// that reaches the program by derivation and one that builds it from the bytes
// agree on the verdict, the InstallErr text, the warning count, the program in
// force, and every variable after activation and after a seeded ACK stream.
func TestDerivedEqualsBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var installed, refused int
	sweep := func(name string, base []byte, rounds int) {
		if len(initFields(t, base)) == 0 {
			return
		}
		for round := 0; round < rounds; round++ {
			moved := append([]byte(nil), base...)
			for _, field := range initFields(t, moved) {
				if rng.Intn(3) > 0 {
					setInit(field, randomInit(rng))
				}
			}
			compared, ok := checkDerivedEqualsBuilt(t, fmt.Sprintf("%s round %d", name, round), base, moved)
			if compared && ok {
				installed++
			} else if compared {
				refused++
			}
		}
	}
	for _, info := range algorithms.All() {
		progs, _ := core.Describe(info.Factory, 1448)
		for i, p := range progs {
			sweep(fmt.Sprintf("%s[%d]", info.Name, i), marshal(t, p), 24)
		}
	}
	sweep("guarded", marshal(t, countProg(guardedFold(1), lang.C(14480))), 24)
	for i := 0; i < 300; i++ {
		p := randprog.Program(rng)
		if p.Validate() != nil {
			continue
		}
		sweep(fmt.Sprintf("randprog %d", i), marshal(t, p), 4)
	}
	t.Logf("%d derived installs agreed with a build, %d derived refusals", installed, refused)
	if installed < 100 || refused < 10 {
		t.Fatalf("the sweep derived %d installs and %d refusals: too few to mean anything", installed, refused)
	}
}

// guardedFold divides by a register that only ever grows from its Init: the
// verdict on the fold is the Init's sign.
func guardedFold(floor float64) *lang.FoldSpec {
	return &lang.FoldSpec{
		Regs: []lang.RegDef{{Name: "floor", Init: floor}, {Name: "ratio", Init: 0}},
		Updates: []lang.Assign{
			{Dst: "floor", E: lang.Max(lang.V("floor"), lang.V("pkt.rtt"))},
			{Dst: "ratio", E: lang.Div(lang.V("pkt.rtt"), lang.V("floor"))},
		},
	}
}

// TestDerivedInstallStillVerifies: deriving buys no trust. An Init that makes
// a denominator possibly zero is refused with the finding a build gives, a
// bad control half behind a good moved Init likewise, and either way the
// program in force stays.
func TestDerivedInstallStillVerifies(t *testing.T) {
	datapath.ResetArtifacts()
	f := newBareFlow()
	if reason := f.deliver(marshal(t, countProg(guardedFold(1), lang.C(14480)))); reason != "" {
		t.Fatalf("good program refused: %s", reason)
	}
	good := f.dp.Program()
	undeclared := *countProg(guardedFold(2), lang.C(14480))
	undeclared.Instrs = append([]lang.Instr{lang.SetRate{E: lang.V("nosuch")}}, undeclared.Instrs...)
	for _, tc := range []struct {
		name string
		prog *lang.Program
		want string
	}{
		{"Init lets the denominator reach zero", countProg(guardedFold(0), lang.C(14480)), absint.CheckDivZero},
		{"NaN Init", countProg(guardedFold(math.NaN()), lang.C(14480)), absint.CheckDivZero},
		{"window out of bounds", countProg(guardedFold(2), lang.C(1<<40)), absint.CheckBounds},
		{"undeclared register", &undeclared, `unknown variable "nosuch"`},
	} {
		data := marshal(t, tc.prog)
		reason := f.deliver(data)
		if reason == "" || !bytes.Contains([]byte(reason), []byte(tc.want)) {
			t.Errorf("%s: refused with %q, want %q", tc.name, reason, tc.want)
		}
		fresh := newBareFlow()
		if built := fresh.deliver(data); built != reason {
			t.Errorf("%s: derived install refused with %q, a build with %q", tc.name, reason, built)
		}
		datapath.ResetArtifacts() // the fresh flow's build is not the subject
		if f.dp.Program() != good {
			t.Fatalf("%s: refused program displaced the good one", tc.name)
		}
	}
	if got := f.dp.Stats().InstallArtifactMisses; got != 5 {
		t.Fatalf("%d misses for one build and four derivations", got)
	}
	// The flow still derives from the program it kept.
	if reason := f.deliver(marshal(t, countProg(guardedFold(3), lang.C(14480)))); reason != "" {
		t.Fatalf("moved Init after refusals refused: %s", reason)
	}
	if got := datapath.StoredArtifacts(); got != 0 {
		t.Fatalf("derived artifacts entered the table: it holds %d", got)
	}
}

// TestOnlyMovedInitsDerive: same length is not same shape. A measure half
// that differs from the running one in a name byte, an operator, an update
// constant, the register count or the mode is built (and enters the table),
// never derived.
func TestOnlyMovedInitsDerive(t *testing.T) {
	fold := func(reg string, init float64, op lang.BinKind, k float64) *lang.FoldSpec {
		return &lang.FoldSpec{
			Regs: []lang.RegDef{{Name: reg, Init: init}},
			Updates: []lang.Assign{{Dst: reg, E: &lang.Bin{Op: op,
				L: lang.V(reg), R: lang.Min(lang.V("pkt.rtt"), lang.C(k))}}},
		}
	}
	running := fold("ab", 1, lang.OpMax, 5)
	// Two registers in the bytes one longer name takes, and a vector naming
	// as many fields as the fold has bytes left.
	twoRegs := &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "a", Init: 1}, {Name: "bb", Init: 1}},
		Updates: []lang.Assign{{Dst: "a", E: lang.Add(lang.C(1), lang.V("pkt.rtt"))}},
	}
	oneReg := &lang.FoldSpec{
		Regs:    []lang.RegDef{{Name: "abcdefghijklmn", Init: 1}},
		Updates: []lang.Assign{{Dst: "abcdefghijklmn", E: lang.C(1)}},
	}
	noUpdates := &lang.FoldSpec{Regs: []lang.RegDef{{Name: "a", Init: 1}}}
	vector := lang.NewProgram().MeasureVector(make([]lang.Field, 11)...).Cwnd(lang.C(14480)).WaitRtts(1).Report().MustBuild()

	for _, tc := range []struct {
		name        string
		from, offer *lang.Program
	}{
		{"name byte", countProg(running, lang.C(14480)), countProg(fold("ac", 1, lang.OpMax, 5), lang.C(14480))},
		{"operator", countProg(running, lang.C(14480)), countProg(fold("ab", 1, lang.OpMin, 5), lang.C(14480))},
		{"update constant", countProg(running, lang.C(14480)), countProg(fold("ab", 1, lang.OpMax, 6), lang.C(14480))},
		{"register count", countProg(twoRegs, lang.C(14480)), countProg(oneReg, lang.C(14480))},
		{"mode", countProg(noUpdates, lang.C(14480)), vector},
	} {
		datapath.ResetArtifacts()
		f := newBareFlow()
		from, offer := marshal(t, tc.from), marshal(t, tc.offer)
		if len(from) != len(offer) {
			t.Fatalf("%s: programs are %d and %d bytes; the case needs equal lengths", tc.name, len(from), len(offer))
		}
		if reason := f.deliver(from); reason != "" {
			t.Fatalf("%s: %s", tc.name, reason)
		}
		if reason := f.deliver(offer); reason != "" {
			t.Fatalf("%s: %s", tc.name, reason)
		}
		if got := datapath.StoredArtifacts(); got != 2 {
			t.Errorf("%s: table holds %d artifacts after two builds: the second was derived", tc.name, got)
		}
		if enc := marshal(t, f.dp.Program()); !bytes.Equal(enc, offer) {
			t.Errorf("%s: program in force is not the one offered", tc.name)
		}
	}
}

// TestDerivedArtifactsStayOutOfTable: the table holds what flows share. With
// all sixteen slots taken by shared measure halves, a flow whose Init moves a
// thousand times — a thousand misses — evicts none of them.
func TestDerivedArtifactsStayOutOfTable(t *testing.T) {
	datapath.ResetArtifacts()
	shared := make([][]byte, datapath.ArtifactCap)
	for i := range shared {
		shared[i] = marshal(t, countProg(shapedFold(i, 0), lang.C(14480)))
		if reason := newBareFlow().deliver(shared[i]); reason != "" {
			t.Fatal(reason)
		}
	}
	mover := newBareFlow()
	for i := 0; i <= 1000; i++ {
		if reason := mover.deliver(marshal(t, countProg(shapedFold(0, float64(i)), lang.C(14480)))); reason != "" {
			t.Fatal(reason)
		}
	}
	if st := mover.dp.Stats(); st.InstallArtifactMisses != 1000 || st.InstallArtifactHits != 1 {
		t.Fatalf("mover: %+v", st)
	}
	for i, data := range shared {
		f := newBareFlow()
		if reason := f.deliver(data); reason != "" {
			t.Fatal(reason)
		}
		if st := f.dp.Stats(); st.InstallArtifactHits != 1 || st.InstallArtifactMisses != 0 {
			t.Fatalf("shared measure half %d was evicted: %+v", i, st)
		}
	}
}
