package datapath

import (
	"fmt"
	"sync"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
)

// Installing a program.
//
// The paper's algorithms answer every report with Install(Measure(fold).
// Cwnd(v).WaitRtts(1).Report()): the fold is the same bytes every time and
// one constant moves. The wire format already has the seam — the measure half
// is a self-delimiting prefix of Install.Prog, the control half is the rest —
// so the install path is split there:
//
//  1. find the program's measure half and the artifact for it: the flow's
//     current artifact by reference, else by prefix, else the table (each a
//     hit); else derive it from the flow's current one if only Init values
//     moved, else build it (both a miss);
//  2. run the control half, unabridged, on every Install: decode and validate
//     the instructions against the artifact's names, check them against its
//     invariant, apply the checks that span both halves, compile them;
//  3. activate: registers back to Init, fresh variable table, pc and timers.
//
// Building is decode, validate, abstract interpretation to the register
// invariant, compile — once per distinct byte string per process. Deriving
// is for the fold that carries state from one Install to the next through a
// register's Init (Vegas's base_rtt): the Inits are read in two places only,
// CompiledFold.InitRegs and the start state of the invariant's fixpoint, so a
// measure half that is the current one with other Inits (lang.SameShape)
// keeps the current artifact's decoded updates, names, resolver and compiled
// code, and gets a new register list and — the one thing that starts from the
// Inits — a new invariant, from absint.AnalyzeMeasure run in full.
//
// By reference is for the commonest Install of all, the one whose measure half
// is the one before's: the agent sends lang.MeasureRef and the epoch — the
// ctrl Seq of the Install that carried the half whole — in place of the bytes
// (lang.AppendRef), and the flow, which keeps the epoch of the half it runs
// (CCP.epoch), finds its artifact by comparing two integers. A reference to
// any other epoch names a half this flow does not hold (the whole Install was
// lost, reordered behind its reference, refused, or superseded): it is
// refused like any other bad Install, the running program stays, and the
// InstallErr makes the agent send the program whole.
//
// All of these are the same function of the measure half, so a program gets
// the same verdict, the same InstallErr text, the same warning count and the
// same state afterwards however its artifact was come by. The table memoizes
// a pure function of the measure-half bytes: it cannot change behaviour, only
// cost.
//
// Every Install is verified, and one with an install-blocking finding is
// refused: the datapath runs programs handed to it by a less-trusted agent,
// so it is the trust boundary (§2), and there is no setting that makes it
// anything else.

// artifact is everything the datapath derives from a measure half. Nothing
// writes to one after buildArtifact or derive returns: flows on different
// goroutines hold, step, verify against and derive from the same artifact at
// the same time.
type artifact struct {
	// key is the measure half's bytes, Init values included: the invariant
	// starts from them, so a fold whose Init moved is a different artifact.
	key string
	// inits is where in key the registers' Init fields are
	// (lang.MeasureInits): the only bytes a derived artifact's key may differ
	// in. Shared with every artifact derived from this one.
	inits []int

	measure  lang.MeasureSpec
	regNames []string
	resolve  lang.Resolver
	nvars    int
	fold     *lang.CompiledFold // fold mode only
	inv      *absint.Invariant
}

func buildArtifact(prefix []byte) (*artifact, error) {
	m, _, err := lang.UnmarshalMeasure(prefix)
	if err != nil {
		return nil, err
	}
	a := &artifact{key: string(prefix), measure: m}
	if _, a.inits, err = lang.MeasureInits(prefix); err != nil {
		return nil, err
	}
	if m.Mode == lang.MeasureFold {
		a.regNames = m.Fold.RegNames()
	}
	a.resolve = lang.StdResolver(a.regNames)
	a.nvars = lang.VarTableSize(len(a.regNames))
	a.inv = absint.AnalyzeMeasure(m, absint.Datapath())
	if m.Mode == lang.MeasureFold {
		if a.fold, err = lang.CompileFold(m.Fold); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// derive returns the artifact of prefix, a measure half that is a's with
// other Init values (lang.SameShape): what buildArtifact(prefix) returns,
// without the decoding and compiling that would only reproduce what a holds.
func (a *artifact) derive(prefix []byte) *artifact {
	d := *a
	d.key = string(prefix)
	d.fold = a.fold.WithInits(prefix, a.inits)
	d.measure.Fold = d.fold.Spec
	d.inv = absint.AnalyzeMeasure(d.measure, absint.Datapath())
	return &d
}

// prefixes reports whether prog starts with the artifact's measure half.
// Because the encoding is self-delimiting (lang.MeasurePrefixLen), that is
// the whole test for "prog's measure half is this one": the decoder reading
// prog would consume exactly these bytes and build exactly this spec.
func (a *artifact) prefixes(prog []byte) bool {
	return len(prog) >= len(a.key) && string(prog[:len(a.key)]) == a.key
}

// artifactCap bounds the process table. The measure halves worth sharing
// are the few that many flows install — one per algorithm in use, plus the
// default program's — so the table is small: what it keeps alive after the
// flows that used it are gone is bounded by a few tens of kilobytes. A flow
// keeps a strong reference to the artifact it runs, so eviction only ever
// costs a later rebuild.
const artifactCap = 16

// artifactTable is the process-wide memo of buildArtifact: exact-byte keys,
// fixed capacity, clock (second-chance) eviction. An entry found by get is
// marked used and survives the hand's next pass; one never asked for again
// is the first to go. Derived artifacts are not entered: a Vegas fold keyed
// by one flow's base_rtt is asked for by that flow alone, which holds it, and
// would only push out what other flows do share. No map iteration: what is
// evicted depends only on the order of gets and puts.
type artifactTable struct {
	mu sync.Mutex
	// byKey maps measure-half bytes to a slot index: keyed by the string, a
	// lookup by prefix bytes converts nothing.
	byKey map[string]int
	slots [artifactCap]struct {
		art  *artifact
		used bool
	}
	hand int
}

var artifacts = artifactTable{byKey: map[string]int{}}

func (t *artifactTable) get(prefix []byte) *artifact {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byKey[string(prefix)]
	if !ok {
		return nil
	}
	t.slots[i].used = true
	return t.slots[i].art
}

// put stores a and returns the artifact to use: a itself, or the equal one
// another goroutine stored first.
func (t *artifactTable) put(a *artifact) *artifact {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byKey[a.key]; ok {
		return t.slots[i].art
	}
	for {
		s := &t.slots[t.hand]
		i := t.hand
		t.hand = (t.hand + 1) % artifactCap
		if s.art != nil && s.used {
			s.used = false // second chance
			continue
		}
		if s.art != nil {
			delete(t.byKey, s.art.key)
		}
		s.art = a
		t.byKey[a.key] = i
		return a
	}
}

// installable is a program verified and compiled, ready to activate, plus
// what preparing it adds to Stats (meaningful even when prepare fails).
type installable struct {
	art      *artifact
	prog     *lang.Program
	ctrl     []lang.RegCode // compiled expression per instruction (zero for Report)
	frameLen int

	hit, miss bool // how the artifact was found, once it was
	// byRef: the artifact was found by reference (a hit); staleRef: the
	// reference named an epoch other than the flow's and was refused for it.
	byRef, staleRef bool
	warnings        int
}

// prepare takes wire bytes through steps 1 and 2 above. cur is the flow's
// current artifact (nil before the first install) and epoch the Seq of the
// Install that brought it.
func prepare(cur *artifact, epoch uint32, prog []byte) (in installable, err error) {
	art := cur
	end := 0
	switch {
	case lang.IsRef(prog):
		var m lang.MeasureSpec
		if m, end, err = lang.UnmarshalMeasure(prog); err != nil {
			return in, err
		}
		if m.Epoch != epoch {
			in.staleRef = true
			return in, fmt.Errorf("datapath: install refers to the measure half of epoch %d, the flow runs epoch %d", m.Epoch, epoch)
		}
		in.byRef = true
	case art != nil && art.prefixes(prog):
		end = len(art.key)
	default:
		if end, err = lang.MeasurePrefixLen(prog); err != nil {
			return in, err
		}
		art = artifacts.get(prog[:end])
	}
	// Both halves are decoded before either is validated, as
	// lang.UnmarshalProgram does, so a malformed byte anywhere is reported
	// ahead of any semantic complaint.
	instrs, urgentECN, err := lang.UnmarshalControl(prog[end:])
	if err != nil {
		return in, err
	}
	switch {
	case art != nil:
		in.hit = true
	case cur != nil && cur.fold != nil && lang.SameShape(cur.key, prog[:end], cur.inits):
		in.miss = true
		art = cur.derive(prog[:end])
	default:
		in.miss = true
		if art, err = buildArtifact(prog[:end]); err != nil {
			return in, err
		}
		// Only a measure half that passed is kept; a refused one is
		// recomputed (and refused again) each time it is offered.
		if !art.inv.HasErrors() {
			art = artifacts.put(art)
		}
	}
	in.art = art

	if err := lang.ValidateControl(instrs, art.resolve); err != nil {
		return in, err
	}
	if in.warnings, err = art.inv.Tally(instrs); err != nil {
		return in, err
	}

	if in.ctrl, err = lang.CompileControl(instrs, art.resolve, art.nvars); err != nil {
		return in, err
	}
	in.frameLen = art.nvars
	if art.fold != nil {
		in.frameLen = art.fold.FrameLen()
	}
	for i := range in.ctrl {
		in.frameLen = max(in.frameLen, in.ctrl[i].FrameLen)
	}
	in.prog = &lang.Program{Measure: art.measure, Instrs: instrs, UrgentECN: urgentECN}
	return in, nil
}

// defaultInstall returns the §3 prototype program — EWMA measurement reported
// once per RTT, what every flow runs until its agent installs something —
// prepared once per process instead of once per flow.
var defaultInstall = sync.OnceValue(func() installable {
	data, err := lang.MarshalProgram(lang.NewProgram().MeasureEWMA().WaitRtts(1).Report().MustBuild())
	var in installable
	if err == nil {
		in, err = prepare(nil, 0, data)
	}
	if err != nil || in.warnings != 0 {
		// The default program is statically valid; a failure here is a bug.
		panic("datapath: built-in default program rejected")
	}
	return in
})

// install takes an Install message's program through the whole path; seq is
// the message's Seq, the epoch of the measure half if the program brings one.
// On error the previous program, and its epoch, stay in force.
func (d *CCP) install(seq uint32, prog []byte) error {
	in, err := prepare(d.art, d.epoch, prog)
	d.n.VerifyWarnings += in.warnings
	if in.staleRef {
		d.n.RefRefusals++
	}
	if in.hit {
		d.n.InstallArtifactHits++
	} else if in.miss {
		d.n.InstallArtifactMisses++
	}
	if err != nil {
		return err
	}
	if in.byRef {
		d.n.InstallsByRef++
	} else {
		d.epoch = seq
	}
	d.activate(in)
	return nil
}

// activate puts a prepared program in force. No errors possible here.
func (d *CCP) activate(in installable) {
	d.art = in.art
	d.fold = in.art.fold
	d.prog = in.prog
	d.ctrl = in.ctrl
	// Size the table to the largest register-VM frame so every fold Step and
	// control eval runs in place. The slots past the variable table are VM
	// scratch: each program writes its temps before reading them (verified at
	// compile time), so the codes can share them. Every install starts from an
	// all-zero table.
	if len(d.vars) == in.frameLen {
		clear(d.vars)
	} else {
		d.vars = make([]float64, in.frameLen)
	}
	if d.fold != nil {
		d.fold.InitRegs(d.vars)
	}
	if d.vec == nil && in.prog.Measure.Mode == lang.MeasureVector {
		d.vec = &vectorState{}
	}
	if v := d.vec; v != nil {
		v.fields = in.prog.Measure.Fields
		v.rows = v.rows[:0]
	}
	d.pc = 0
	d.waitedPass = false
	stopTimer(&d.waitTimer)
	d.refreshFlowVars()
	d.resume()
}
