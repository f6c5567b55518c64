package proto

import (
	"reflect"
	"testing"
)

// These tests pin down the contract the decoderalias analyzer assumes: a
// clone — the codec round trip, Marshal then the allocating Unmarshal —
// shares no memory with decoder scratch or the input buffer, so it stays
// valid across the next Unmarshal (and across mutation of the frame it was
// decoded from), while the un-cloned view does not.

func mustMarshal(t *testing.T, m Msg) []byte {
	t.Helper()
	b, err := Marshal(m)
	if err != nil {
		t.Fatalf("marshal %T: %v", m, err)
	}
	return b
}

// clone deep-copies m by the codec round trip.
func clone(t *testing.T, m Msg) Msg {
	t.Helper()
	c, err := Unmarshal(mustMarshal(t, m))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return c
}

func decodeWith(t *testing.T, dec *Decoder, b []byte) Msg {
	t.Helper()
	m, err := dec.Unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return m
}

// A clone of a report decoded into scratch must survive the next Unmarshal on
// the same decoder; the raw view is recycled out from under us.
func TestCloneSurvivesNextUnmarshal(t *testing.T) {
	frame1 := mustMarshal(t, &Measurement{SID: 1, Seq: 10, Fields: []float64{1.5, 2.5, 3.5}})
	frame2 := mustMarshal(t, &Measurement{SID: 9, Seq: 90, Fields: []float64{-1, -2, -3}})

	var dec Decoder
	raw := decodeWith(t, &dec, frame1).(*Measurement)
	clone := clone(t, raw).(*Measurement)

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
// A clone must copy it; the raw view must follow buffer mutation.
func TestCloneInstallSurvivesBufferMutation(t *testing.T) {
	prog := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	frame := mustMarshal(t, &Install{SID: 5, Seq: 2, Prog: prog})

	var dec Decoder
	raw := decodeWith(t, &dec, frame).(*Install)
	clone := clone(t, raw).(*Install)

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

// A clone of a message with slices must be fully disjoint: mutating any slice
// reachable from the original must not show through the clone.
func TestCloneDeepDisjoint(t *testing.T) {
	meas := &Measurement{SID: 1, Seq: 1, Epoch: 4, Fields: []float64{10, 20}}
	snap := &Snapshot{SID: 2, Prog: []byte{1, 2, 3}, State: []float64{5, 6}}
	cm, cs := clone(t, meas).(*Measurement), clone(t, snap).(*Snapshot)

	meas.Fields[0] = -99
	snap.Prog[0], snap.State[1] = 0xFF, -1

	if got := cm.Fields[0]; got != 10 || cm.Epoch != 4 {
		t.Fatalf("clone.Fields shares storage with original (got %v, epoch %d)", got, cm.Epoch)
	}
	if cs.Prog[0] != 1 || cs.State[1] != 6 {
		t.Fatalf("clone.Prog/State share storage with original (got %v, %v)", cs.Prog, cs.State)
	}
}
