package datapath_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/datapath"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/randprog"
)

// An Install by reference names the measure half the flow already runs by
// its epoch and carries the control half alone (install.go). These tests hold
// it to the whole-program Install it stands for, and to refusing every epoch
// but the flow's own.

// halves splits a whole program's wire bytes where its control half starts.
func halves(t testing.TB, data []byte) (measure, ctrl []byte) {
	t.Helper()
	n, err := lang.MeasurePrefixLen(data)
	if err != nil {
		t.Fatal(err)
	}
	return data[:n], data[n:]
}

// checkRefEqualsWhole installs first on two flows as the Install with Seq 1,
// then offers second — first's measure half with another control half — to
// both as Seq 2: whole to one, as a reference to epoch 1 to the other.
// Everything observable but the epoch and the by-reference count must agree.
// It reports whether there was anything to compare and how the Install ended.
func checkRefEqualsWhole(t *testing.T, name string, first, second []byte) (compared, installed bool) {
	t.Helper()
	datapath.ResetArtifacts()
	measure, ctrl := halves(t, second)
	if m, _ := halves(t, first); string(m) != string(measure) {
		t.Fatalf("%s: the two programs do not share a measure half", name)
	}
	whole, byRef := newBareFlow(), newBareFlow()
	if reason := whole.deliverSeq(1, first); reason != "" {
		return false, false // first itself is refused: no epoch to refer to
	}
	if reason := byRef.deliverSeq(1, first); reason != "" {
		t.Fatalf("%s: first refused on the second flow only: %s", name, reason)
	}
	before := byRef.dp.Program()
	warnW, warnR := whole.dp.Stats().VerifyWarnings, byRef.dp.Stats().VerifyWarnings

	reasonW := whole.deliverSeq(2, second)
	reasonR := byRef.deliverSeq(2, lang.AppendRef(nil, 1, ctrl))
	if reasonW != reasonR {
		t.Fatalf("%s: whole install: %q\nby reference: %q", name, reasonW, reasonR)
	}
	if w, r := whole.dp.Stats().VerifyWarnings-warnW, byRef.dp.Stats().VerifyWarnings-warnR; w != r {
		t.Fatalf("%s: whole install drew %d warnings, by reference %d", name, w, r)
	}
	if st := byRef.dp.Stats(); st.RefRefusals != 0 || byRef.dp.Epoch() != 1 {
		t.Fatalf("%s: a reference to the flow's own epoch: epoch %d afterwards, %+v", name, byRef.dp.Epoch(), st)
	}
	if reasonW != "" {
		if byRef.dp.Program() != before || whole.dp.Epoch() != 1 || byRef.dp.Stats().InstallsByRef != 0 {
			t.Fatalf("%s: a refused install left a trace: epoch %d, %+v", name, whole.dp.Epoch(), byRef.dp.Stats())
		}
		return true, false
	}
	if whole.dp.Epoch() != 2 || byRef.dp.Stats().InstallsByRef != 1 {
		t.Fatalf("%s: epoch %d after the whole install, %d installs by reference", name, whole.dp.Epoch(), byRef.dp.Stats().InstallsByRef)
	}
	// The program in force is the whole program either way, never the reference.
	for _, f := range []*bareFlow{whole, byRef} {
		if enc, err := lang.MarshalProgram(f.dp.Program()); err != nil || string(enc) != string(second) {
			t.Fatalf("%s: program in force re-encodes to %x (%v), installed %x", name, enc, err, second)
		}
	}
	same := func(when string) {
		t.Helper()
		codeW, pcW := whole.dp.Control()
		codeR, pcR := byRef.dp.Control()
		if pcW != pcR || !reflect.DeepEqual(codeW, codeR) {
			t.Fatalf("%s: control %s: pc %d whole, %d by reference\nwhole        %+v\nby reference %+v", name, when, pcW, pcR, codeW, codeR)
		}
		if !sameBits(whole.dp.Vars(), byRef.dp.Vars()) {
			t.Fatalf("%s: vars %s\nwhole        %v\nby reference %v", name, when, whole.dp.Vars(), byRef.dp.Vars())
		}
	}
	same("after activation")
	whole.acks(7, 96)
	byRef.acks(7, 96)
	same("after 96 ACKs")
	if len(whole.reports) != len(byRef.reports) {
		t.Fatalf("%s: whole sent %d reports, by reference %d", name, len(whole.reports), len(byRef.reports))
	}
	for i := range whole.reports {
		if !sameBits(whole.reports[i], byRef.reports[i]) {
			t.Fatalf("%s: report %d: whole %v, by reference %v", name, i, whole.reports[i], byRef.reports[i])
		}
	}
	stW, stR := whole.dp.Stats().Deterministic(), byRef.dp.Stats().Deterministic()
	stR.InstallsByRef = 0
	if stW != stR {
		t.Fatalf("%s: stats\nwhole        %+v\nby reference %+v", name, stW, stR)
	}
	return true, true
}

// TestRefEqualsWhole: for every program a bundled algorithm installs and a
// thousand random ones, a flow handed a control half
// by reference and one handed the same program whole agree on the verdict,
// the InstallErr text, the warning count, the program in force, the compiled
// control half and where it stands, and every variable and report after
// activation and after a seeded ACK stream. The control halves offered are
// the program's own, other programs' (which read registers this fold does not
// declare, or write what the verifier refuses), and damaged ones.
func TestRefEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var installed, refused int
	offer := func(name string, first, second []byte) {
		compared, ok := checkRefEqualsWhole(t, name, first, second)
		if compared && ok {
			installed++
		} else if compared {
			refused++
		}
	}
	splice := func(first, other []byte) []byte {
		measure, _ := halves(t, first)
		_, ctrl := halves(t, other)
		return append(append([]byte(nil), measure...), ctrl...)
	}
	damage := func(data []byte) []byte {
		measure, _ := halves(t, data)
		out := append([]byte(nil), data...)
		out[len(measure)+rng.Intn(len(out)-len(measure))] ^= byte(1 << rng.Intn(8))
		return out
	}

	var bundled [][]byte
	for _, info := range algorithms.All() {
		progs, _ := core.Describe(info.Factory, 1448)
		for _, p := range progs {
			bundled = append(bundled, marshal(t, p))
		}
	}
	for i, first := range bundled {
		name := fmt.Sprintf("bundled %d", i)
		offer(name, first, first)
		offer(name+" moved constant", first, splice(first, marshal(t, countProg(countFold(0), lang.C(float64(1448*(2+i)))))))
		offer(name+" spliced", first, splice(first, bundled[rng.Intn(len(bundled))]))
		offer(name+" damaged", first, damage(first))
	}
	var prev []byte
	for i := 0; i < 1000; i++ {
		p := randprog.Program(rng)
		if p.Validate() != nil {
			continue
		}
		first := marshal(t, p)
		name := fmt.Sprintf("randprog %d", i)
		offer(name, first, first)
		if prev != nil {
			offer(name+" spliced", first, splice(first, prev))
		}
		offer(name+" damaged", first, damage(first))
		prev = first
	}
	t.Logf("%d installs by reference agreed with the whole program, %d refusals", installed, refused)
	if installed < 500 || refused < 100 {
		t.Fatalf("the sweep compared %d installs and %d refusals: too few to mean anything", installed, refused)
	}
}

// TestStaleReferenceRefused: a reference is honoured only when it names the
// epoch of the measure half in force. Any other — the whole Install it refers
// to never arrived, was refused, went unsequenced, or has been superseded by
// another whole one — is refused with an InstallErr that says so, and the
// program in force, its epoch and its state are untouched.
func TestStaleReferenceRefused(t *testing.T) {
	cubic := algPrograms(t, "cubic")[0]
	vegas := algPrograms(t, "vegas")[0]
	_, ctrl := halves(t, cubic)
	ref := func(epoch uint32) []byte { return lang.AppendRef(nil, epoch, ctrl) }

	refuse := func(t *testing.T, f *bareFlow, seq, epoch uint32) {
		t.Helper()
		prog, was, st := f.dp.Program(), f.dp.Epoch(), f.dp.Stats()
		vars := append([]float64(nil), f.dp.Vars()...)
		reason := f.deliverSeq(seq, ref(epoch))
		want := fmt.Sprintf("refers to the measure half of epoch %d, the flow runs epoch %d", epoch, was)
		if !strings.Contains(reason, want) {
			t.Fatalf("reference to epoch %d at a flow running epoch %d: InstallErr %q, want %q", epoch, was, reason, want)
		}
		now := f.dp.Stats()
		if f.dp.Program() != prog || f.dp.Epoch() != was || !sameBits(f.dp.Vars(), vars) ||
			now.RefRefusals != st.RefRefusals+1 || now.InstallRejects != st.InstallRejects+1 ||
			now.InstallsRecvd != st.InstallsRecvd || now.InstallsByRef != st.InstallsByRef {
			t.Fatalf("the refusal left a trace: epoch %d, %+v", f.dp.Epoch(), now)
		}
	}
	accept := func(t *testing.T, f *bareFlow, seq, epoch uint32) {
		t.Helper()
		if reason := f.deliverSeq(seq, ref(epoch)); reason != "" {
			t.Fatalf("reference to epoch %d refused at a flow running epoch %d: %s", epoch, f.dp.Epoch(), reason)
		}
	}

	t.Run("default program", func(t *testing.T) {
		f := newBareFlow()
		refuse(t, f, 1, 1)
	})
	t.Run("unsequenced install", func(t *testing.T) {
		f := newBareFlow()
		if reason := f.deliver(cubic); reason != "" {
			t.Fatal(reason)
		}
		refuse(t, f, 1, 1)
	})
	t.Run("lost install", func(t *testing.T) {
		f := newBareFlow()
		if reason := f.deliverSeq(3, cubic); reason != "" {
			t.Fatal(reason)
		}
		accept(t, f, 4, 3)
		// Install 5, whole, never arrives; the references to it do.
		refuse(t, f, 6, 5)
		refuse(t, f, 7, 5)
		// The agent's answer to the InstallErr: the program whole, which later
		// references then name.
		if reason := f.deliverSeq(8, cubic); reason != "" {
			t.Fatal(reason)
		}
		refuse(t, f, 9, 3)
		accept(t, f, 10, 8)
	})
	t.Run("refused install", func(t *testing.T) {
		f := newBareFlow()
		if reason := f.deliverSeq(1, cubic); reason != "" {
			t.Fatal(reason)
		}
		bad := marshal(t, countProg(guardedFold(0), lang.C(14480)))
		if reason := f.deliverSeq(2, bad); reason == "" {
			t.Fatal("a fold that divides by zero was installed")
		}
		refuse(t, f, 3, 2)
		accept(t, f, 4, 1)
	})
	t.Run("superseded install", func(t *testing.T) {
		f := newBareFlow()
		if reason := f.deliverSeq(1, cubic); reason != "" {
			t.Fatal(reason)
		}
		if reason := f.deliverSeq(2, vegas); reason != "" {
			t.Fatal(reason)
		}
		// Cubic's control half over Vegas's fold is exactly what must not run.
		refuse(t, f, 3, 1)
	})
	t.Run("reordered behind its reference", func(t *testing.T) {
		f := newBareFlow()
		refuse(t, f, 2, 1)
		// The whole Install arrives second and is stale by then.
		if reason := f.deliverSeq(1, cubic); reason != "" || f.dp.Stats().StaleCtrlDropped != 1 {
			t.Fatalf("the overtaken Install: %q, %+v", reason, f.dp.Stats())
		}
		refuse(t, f, 3, 1)
	})
	t.Run("custom default program", func(t *testing.T) {
		// A default program is EWMA-mode (the agent names epoch 0 so); this
		// one reports every other round trip.
		p := lang.NewProgram().MeasureEWMA().WaitRtts(2).Report().MustBuild()
		f := newBareFlowCfg(datapath.Config{DefaultProgram: p})
		if f.dp.Epoch() != 0 || f.dp.Program().Instrs[0] != (lang.WaitRtts{Rtts: lang.C(2)}) {
			t.Fatalf("a default program has epoch %d and runs %s", f.dp.Epoch(), f.dp.Program())
		}
		refuse(t, f, 1, 1)

		fold, err := lang.UnmarshalProgram(cubic)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not EWMA") {
				t.Fatalf("a fold-mode default program: %v, want Init to refuse it", r)
			}
		}()
		newBareFlowCfg(datapath.Config{DefaultProgram: fold})
	})
}
