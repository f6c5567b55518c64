package proto

import (
	"reflect"
	"testing"
)

// These tests pin down the Clone contract the decoderalias analyzer assumes:
// a cloned message shares no memory with decoder scratch or the input
// buffer, so it stays valid across the next Unmarshal (and across mutation
// of the frame it was decoded from), while the un-cloned view does not.

func mustMarshal(t *testing.T, m Msg) []byte {
	t.Helper()
	b, err := Marshal(m)
	if err != nil {
		t.Fatalf("marshal %T: %v", m, err)
	}
	return b
}

func decodeWith(t *testing.T, dec *Decoder, b []byte) Msg {
	t.Helper()
	m, err := dec.Unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return m
}

// Clone of a report decoded into scratch must survive the next Unmarshal on
// the same decoder; the raw view is recycled out from under us.
func TestCloneSurvivesNextUnmarshal(t *testing.T) {
	frame1 := mustMarshal(t, &Measurement{SID: 1, Seq: 10, Fields: []float64{1.5, 2.5, 3.5}})
	frame2 := mustMarshal(t, &Measurement{SID: 9, Seq: 90, Fields: []float64{-1, -2, -3}})

	var dec Decoder
	raw := decodeWith(t, &dec, frame1).(*Measurement)
	clone := Clone(raw).(*Measurement)

	// The clone must not share backing storage with the scratch view.
	if &clone.Fields[0] == &raw.Fields[0] {
		t.Fatal("clone aliases decoder scratch Fields")
	}

	// Recycle the scratch: frame2 has the same shape, so the raw view's
	// backing array is overwritten in place.
	decodeWith(t, &dec, frame2)

	want := &Measurement{SID: 1, Seq: 10, Fields: []float64{1.5, 2.5, 3.5}}
	if !reflect.DeepEqual(clone, want) {
		t.Fatalf("clone corrupted by subsequent Unmarshal:\n got %+v\nwant %+v", clone, want)
	}

	// And the hazard is real: the un-cloned view now shows frame2's data.
	if raw.SID == 1 || raw.Fields[0] == 1.5 {
		t.Fatal("scratch was not recycled; test proves nothing")
	}
}

// Install decodes with a zero-copy Prog that aliases the input buffer.
// Clone must copy it; the raw view must follow buffer mutation.
func TestCloneInstallSurvivesBufferMutation(t *testing.T) {
	prog := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	frame := mustMarshal(t, &Install{SID: 5, Seq: 2, Prog: prog})

	var dec Decoder
	raw := decodeWith(t, &dec, frame).(*Install)
	clone := Clone(raw).(*Install)

	// Overwrite the wire bytes in place, as a transport reusing its read
	// buffer (or a bufpool.Release under -tags debugpool) would.
	for i := range frame {
		frame[i] = 0xEE
	}

	if want := []byte{0xAA, 0xBB, 0xCC, 0xDD}; !reflect.DeepEqual(clone.Prog, want) {
		t.Fatalf("cloned Prog corrupted by buffer mutation: %x, want %x", clone.Prog, want)
	}
	if reflect.DeepEqual(raw.Prog, prog) {
		t.Fatal("raw Install.Prog does not alias the input buffer; zero-copy contract changed")
	}
}

// Clone of a message with slices must be fully disjoint: mutating any slice
// reachable from the original must not show through the clone.
func TestCloneDeepDisjoint(t *testing.T) {
	meas := &Measurement{SID: 1, Seq: 1, Fields: []float64{10, 20}}
	vec := &Vector{SID: 3, Seq: 4, NumFields: 2, Data: []float64{1, 2, 3, 4}}
	snap := &Snapshot{SID: 2, Prog: []byte{1, 2, 3}, State: []float64{5, 6}}
	cm, cv, cs := Clone(meas).(*Measurement), Clone(vec).(*Vector), Clone(snap).(*Snapshot)

	meas.Fields[0] = -99
	vec.Data[3] = -1
	snap.Prog[0], snap.State[1] = 0xFF, -1

	if got := cm.Fields[0]; got != 10 {
		t.Fatalf("clone.Fields shares storage with original (got %v)", got)
	}
	if got := cv.Data[3]; got != 4 {
		t.Fatalf("clone.Data shares storage with original (got %v)", got)
	}
	if cs.Prog[0] != 1 || cs.State[1] != 6 {
		t.Fatalf("clone.Prog/State share storage with original (got %v, %v)", cs.Prog, cs.State)
	}
}

// CloneInto means what Clone means whatever the container last held: a
// longer report, a shorter one, another type, nothing. What it returns is
// disjoint from its source, and is the container itself when the types match.
func TestCloneIntoMatchesCloneForAnyContainer(t *testing.T) {
	srcs := []Msg{
		&Measurement{SID: 1, Seq: 2, Fields: []float64{1, 2, 3}},
		&Measurement{SID: 1, Seq: 3},
		&Vector{SID: 2, Seq: 1, NumFields: 2, Data: []float64{1, 2, 3, 4}},
		&Urgent{SID: 3, Seq: 1, Kind: UrgentTimeout, Value: 1448},
		&Close{SID: 4},
	}
	containers := func() []Msg {
		return []Msg{
			nil,
			(*Measurement)(nil),
			&Measurement{SID: 9, Seq: 9, Fields: []float64{7, 7, 7, 7, 7}},
			&Vector{SID: 9, NumFields: 1, Data: []float64{7}},
			&Urgent{SID: 9},
		}
	}
	for _, src := range srcs {
		want := mustMarshal(t, Clone(src))
		for _, dst := range containers() {
			got := CloneInto(dst, src)
			if gb := mustMarshal(t, got); string(gb) != string(want) {
				t.Errorf("CloneInto(%T, %T) = %x, want %x", dst, src, gb, want)
			}
			if dst != nil && reflect.TypeOf(dst) == reflect.TypeOf(src) && !reflect.ValueOf(dst).IsNil() && got != dst {
				t.Errorf("CloneInto(%T, %T) did not reuse its container", dst, src)
			}
		}
	}

	// Disjoint: scribbling on the source after the copy shows nowhere.
	meas := &Measurement{SID: 1, Seq: 1, Fields: []float64{10, 20}}
	vec := &Vector{SID: 2, Seq: 1, NumFields: 1, Data: []float64{30}}
	gm := CloneInto(containers()[2], meas).(*Measurement)
	gv := CloneInto(containers()[3], vec).(*Vector)
	meas.Fields[1], vec.Data[0] = -1, -1
	if gm.Fields[1] != 20 || gv.Data[0] != 30 {
		t.Fatalf("container shares storage with its source: %+v %+v", gm, gv)
	}
}
