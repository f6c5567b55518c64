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

// Clone of a batch-of-reports decoded into scratch must survive the next
// Unmarshal on the same decoder; the raw view is recycled out from under us.
func TestCloneBatchSurvivesNextUnmarshal(t *testing.T) {
	frame1 := mustMarshal(t, &Batch{Msgs: []Msg{
		&Measurement{SID: 1, Seq: 10, Fields: []float64{1.5, 2.5, 3.5}},
		&Measurement{SID: 2, Seq: 20, Fields: []float64{4.5, 5.5}},
		&SetCwnd{SID: 3, Seq: 30, Bytes: 14480},
	}})
	frame2 := mustMarshal(t, &Batch{Msgs: []Msg{
		&Measurement{SID: 9, Seq: 90, Fields: []float64{-1, -2, -3}},
		&Measurement{SID: 8, Seq: 80, Fields: []float64{-4, -5}},
		&SetCwnd{SID: 7, Seq: 70, Bytes: 1},
	}})

	var dec Decoder
	// Warm the decoder so its scratch slices reach steady-state capacity;
	// views taken while the slabs are still growing can be orphaned by the
	// growth reallocation rather than recycled in place.
	decodeWith(t, &dec, frame1)
	raw := decodeWith(t, &dec, frame1).(*Batch)
	rawFirst := raw.Msgs[0].(*Measurement)
	clone := Clone(raw).(*Batch)

	// The clone must not share backing storage with the scratch view.
	cloneFirst := clone.Msgs[0].(*Measurement)
	if &cloneFirst.Fields[0] == &rawFirst.Fields[0] {
		t.Fatal("clone aliases decoder scratch Fields")
	}

	// Recycle the scratch: frame2 has the same shape, so the raw view's
	// backing arrays are overwritten in place.
	decodeWith(t, &dec, frame2)

	want := &Batch{Msgs: []Msg{
		&Measurement{SID: 1, Seq: 10, Fields: []float64{1.5, 2.5, 3.5}},
		&Measurement{SID: 2, Seq: 20, Fields: []float64{4.5, 5.5}},
		&SetCwnd{SID: 3, Seq: 30, Bytes: 14480},
	}}
	if !reflect.DeepEqual(clone, want) {
		t.Fatalf("clone corrupted by subsequent Unmarshal:\n got %+v\nwant %+v", clone, want)
	}

	// And the hazard is real: the un-cloned view now shows frame2's data.
	if rawFirst.SID == 1 && rawFirst.Seq == 10 {
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

// Clone of a deep/aliased message graph must be fully disjoint: mutating any
// slice reachable from the original must not show through the clone.
func TestCloneDeepDisjoint(t *testing.T) {
	orig := &Batch{Msgs: []Msg{
		&Measurement{SID: 1, Seq: 1, Fields: []float64{10, 20}},
		&Install{SID: 2, Seq: 3, Prog: []byte{1, 2, 3}},
		&Vector{SID: 3, Seq: 4, NumFields: 2, Data: []float64{1, 2, 3, 4}},
	}}
	clone := Clone(orig).(*Batch)

	orig.Msgs[0].(*Measurement).Fields[0] = -99
	orig.Msgs[1].(*Install).Prog[0] = 0xFF
	orig.Msgs[2].(*Vector).Data[3] = -1
	orig.Msgs[0] = &Close{SID: 42} // the Msgs slice itself must be copied too

	if got := clone.Msgs[0].(*Measurement).Fields[0]; got != 10 {
		t.Fatalf("clone.Fields shares storage with original (got %v)", got)
	}
	if got := clone.Msgs[1].(*Install).Prog[0]; got != 1 {
		t.Fatalf("clone.Prog shares storage with original (got %v)", got)
	}
	if got := clone.Msgs[2].(*Vector).Data[3]; got != 4 {
		t.Fatalf("clone.Data shares storage with original (got %v)", got)
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
		&Batch{Msgs: []Msg{
			&Measurement{SID: 5, Seq: 1, Fields: []float64{9}},
			&Urgent{SID: 6, Seq: 1, Kind: UrgentECN, Value: 2},
			&Create{SID: 7, Alg: "reno"},
		}},
	}
	containers := func() []Msg {
		return []Msg{
			nil,
			(*Measurement)(nil),
			&Measurement{SID: 9, Seq: 9, Fields: []float64{7, 7, 7, 7, 7}},
			&Vector{SID: 9, NumFields: 1, Data: []float64{7}},
			&Urgent{SID: 9},
			&Batch{Msgs: []Msg{&Urgent{SID: 9}, &Measurement{SID: 9, Fields: []float64{7, 7}}, &Close{SID: 9}, &Vector{}}},
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
	src := &Batch{Msgs: []Msg{
		&Measurement{SID: 1, Seq: 1, Fields: []float64{10, 20}},
		&Vector{SID: 2, Seq: 1, NumFields: 1, Data: []float64{30}},
	}}
	got := CloneInto(containers()[5], src).(*Batch)
	src.Msgs[0].(*Measurement).Fields[1] = -1
	src.Msgs[1].(*Vector).Data[0] = -1
	src.Msgs[1] = &Close{SID: 42}
	if got.Msgs[0].(*Measurement).Fields[1] != 20 || got.Msgs[1].(*Vector).Data[0] != 30 {
		t.Fatalf("container shares storage with its source: %+v %+v", got.Msgs[0], got.Msgs[1])
	}
}

// CloneBatchInto takes the accepted sub-messages in frame order, and keeps
// the sub-containers it did not need this time for the next.
func TestCloneBatchIntoFilterKeepsOrder(t *testing.T) {
	src := &Batch{}
	for sid := uint32(1); sid <= 9; sid++ {
		src.Msgs = append(src.Msgs, &Measurement{SID: sid, Seq: 10 * sid, Fields: []float64{float64(sid)}})
	}
	var dst *Batch
	for _, mod := range []uint32{1, 3, 2} { // all nine, then three, then four of them
		dst = CloneBatchInto(dst, src, func(m Msg) bool { return m.FlowSID()%mod == 0 })
		var want []uint32
		for sid := uint32(1); sid <= 9; sid++ {
			if sid%mod == 0 {
				want = append(want, sid)
			}
		}
		if len(dst.Msgs) != len(want) {
			t.Fatalf("mod %d: kept %d, want %d", mod, len(dst.Msgs), len(want))
		}
		for i, sid := range want {
			if m := dst.Msgs[i].(*Measurement); m.SID != sid || m.Seq != 10*sid || m.Fields[0] != float64(sid) {
				t.Fatalf("mod %d: position %d holds %+v, want flow %d", mod, i, m, sid)
			}
		}
	}
	if cap(dst.Msgs) < 9 {
		t.Fatalf("spare sub-containers were dropped: cap %d", cap(dst.Msgs))
	}
}
