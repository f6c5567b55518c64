package proto_test

import (
	"bytes"
	"testing"

	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/testenv"
)

// These tests pin the wire codec's zero-allocation steady state: AppendMarshal
// into a reused buffer and Decoder.Unmarshal into reused scratch must not
// touch the heap once warmed up. They are the regression harness for the
// pooled frame lifecycle — a change that reintroduces a per-message
// allocation fails here, not in a profile three PRs later.

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if testenv.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	fn() // warm scratch and buffer capacity outside the measured window
	if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
		t.Fatalf("%s allocated %.1f times per op, want 0", name, allocs)
	}
}

func TestAllocsReportRoundTrip(t *testing.T) {
	m := &proto.Measurement{
		SID: 7, Seq: 42,
		Fields: []float64{0.012, 1.2e6, 1.1e6, 2896, 0, 0, 0.013},
	}
	buf := make([]byte, 0, 256)
	var dec proto.Decoder
	var encErr, decErr error
	requireZeroAllocs(t, "report round trip", func() {
		var b []byte
		b, encErr = proto.AppendMarshal(buf[:0], m)
		if encErr != nil {
			return
		}
		_, decErr = dec.Unmarshal(b)
	})
	if encErr != nil || decErr != nil {
		t.Fatalf("round trip failed: enc=%v dec=%v", encErr, decErr)
	}
}

func TestAllocsSetCwndRoundTrip(t *testing.T) {
	m := &proto.SetCwnd{SID: 7, Seq: 9, Bytes: 144800}
	buf := make([]byte, 0, 64)
	var dec proto.Decoder
	var encErr, decErr error
	requireZeroAllocs(t, "setcwnd round trip", func() {
		var b []byte
		b, encErr = proto.AppendMarshal(buf[:0], m)
		if encErr != nil {
			return
		}
		_, decErr = dec.Unmarshal(b)
	})
	if encErr != nil || decErr != nil {
		t.Fatalf("round trip failed: enc=%v dec=%v", encErr, decErr)
	}
}

// TestAllocsCloneInto pins the shard hop's copy: once a container has held
// a report of each shape, copying the next one into it touches no heap — for
// a bare report, an urgent and a vector alike.
func TestAllocsCloneInto(t *testing.T) {
	for _, src := range []proto.Msg{
		&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{0.01, 1e6, 1e6, 1448, 0, 0, 0.01}},
		&proto.Urgent{SID: 7, Seq: 3, Kind: proto.UrgentDupAck, Value: 1448},
		&proto.Vector{SID: 7, Seq: 4, NumFields: 2, Data: []float64{1, 2, 3, 4}},
	} {
		var dst proto.Msg
		requireZeroAllocs(t, "CloneInto "+src.Type().String(), func() {
			dst = proto.CloneInto(dst, src)
		})
	}
}

// TestAllocsSnapshotRoundTrip pins the HA replication path: a primary
// streaming periodic snapshots and a standby decoding them must not touch
// the heap per message once warmed up. The decoder's string interning
// (identity fields repeat every snapshot) is what makes the decode side
// zero-alloc; this is the regression test for it.
func TestAllocsSnapshotRoundTrip(t *testing.T) {
	m := &proto.Snapshot{
		SID: 7, Installed: true, MSS: 1448, InitCwnd: 14480,
		CtrlSeq: 93, CreateSeq: 2, ReportSeq: 1204, UrgentSeq: 3,
		SrcAddr: "10.0.0.1:4242", DstAddr: "10.0.0.2:80", Alg: "cubic",
		Prog:  []byte{0xCC, 2, 0, 1, 0x14, 0},
		State: []float64{14480, 65535, 2.5, 0.01, 1.2e6, 0, 0.25},
	}
	buf := make([]byte, 0, 256)
	var dec proto.Decoder
	var encErr, decErr error
	requireZeroAllocs(t, "snapshot round trip", func() {
		var b []byte
		b, encErr = proto.AppendMarshal(buf[:0], m)
		if encErr != nil {
			return
		}
		m.CtrlSeq++ // sequence advances between snapshots; identity repeats
		_, decErr = dec.Unmarshal(b)
	})
	if encErr != nil || decErr != nil {
		t.Fatalf("round trip failed: enc=%v dec=%v", encErr, decErr)
	}
}

// TestAllocsDecodeReuseIndependentResults checks that the zero-alloc reuse
// does not corrupt results: two decodes on the same Decoder yield values that
// match fresh decodes, message by message.
func TestAllocsDecodeReuseIndependentResults(t *testing.T) {
	a := &proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1, 2, 3}}
	b := &proto.Measurement{SID: 2, Seq: 2, Fields: []float64{9, 8, 7, 6}}
	ab, err := proto.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := proto.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var dec proto.Decoder
	m1, err := dec.Unmarshal(ab)
	if err != nil {
		t.Fatal(err)
	}
	got1 := proto.Clone(m1).(*proto.Measurement)
	m2, err := dec.Unmarshal(bb)
	if err != nil {
		t.Fatal(err)
	}
	got2 := m2.(*proto.Measurement)
	if got1.SID != 1 || len(got1.Fields) != 3 || got1.Fields[2] != 3 {
		t.Fatalf("first decode corrupted by reuse: %+v", got1)
	}
	if got2.SID != 2 || len(got2.Fields) != 4 || got2.Fields[3] != 6 {
		t.Fatalf("second decode wrong: %+v", got2)
	}
}

// TestInstallProgAliasesInput documents the decoder's one deliberate aliasing
// choice: Install.Prog is a view of the input buffer, not a copy. Callers
// that outlive the buffer must Clone.
func TestInstallProgAliasesInput(t *testing.T) {
	m := &proto.Install{SID: 3, Seq: 1, Prog: []byte{1, 2, 3, 4}}
	data, err := proto.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var dec proto.Decoder
	got, err := dec.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	inst := got.(*proto.Install)
	cl := proto.Clone(got).(*proto.Install)
	for i := range data {
		data[i] = 0xAA
	}
	if bytes.Equal(inst.Prog, []byte{1, 2, 3, 4}) {
		t.Fatal("Install.Prog did not alias the input buffer; the zero-copy view was lost")
	}
	if !bytes.Equal(cl.Prog, []byte{1, 2, 3, 4}) {
		t.Fatalf("Clone aliased the input buffer: %v", cl.Prog)
	}
}

// FuzzDecoderAliasing decodes arbitrary bytes, deep-copies the result, then
// scribbles over the input buffer and the decoder's scratch. The copy must
// match a pristine decode — i.e. Clone must sever every alias the scratch
// decoder keeps into the input (Install.Prog and Snapshot.Prog in
// particular) — and so must a CloneInto a report container that last held a
// different report of the same kind, whose storage the copy reuses: a
// container never shares memory with its source. Messages are compared
// through their canonical re-encoding, which is insensitive to
// nil-versus-empty slice differences.
func FuzzDecoderAliasing(f *testing.F) {
	for _, m := range []proto.Msg{
		&proto.Install{SID: 1, Seq: 2, Prog: []byte{9, 9, 9}},
		&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1, 2, 3}},
		&proto.Vector{SID: 1, Seq: 1, NumFields: 1, Data: []float64{0.5, 0.25}},
		&proto.Snapshot{SID: 1, Installed: true, Alg: "reno", Prog: []byte{7, 7}, State: []float64{4}},
	} {
		data, err := proto.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// What each report container held last; decoding these again is also
	// the scribble over the decoder's report scratch.
	held := []proto.Msg{
		&proto.Measurement{SID: 0xEE, Seq: 0xEE, Fields: []float64{-1, -1, -1, -1}},
		&proto.Vector{SID: 0xEE, Seq: 0xEE, NumFields: 1, Data: []float64{-1, -1, -1}},
		&proto.Urgent{SID: 0xEE, Seq: 0xEE, Kind: proto.UrgentECN, Value: -1},
	}
	var scribble [][]byte
	for _, m := range held {
		data, err := proto.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		scribble = append(scribble, data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		aliased := append([]byte(nil), data...)
		var dec proto.Decoder
		m, err := dec.Unmarshal(aliased)
		if err != nil {
			return
		}
		cl := proto.Clone(m)
		var container proto.Msg
		for _, h := range held {
			if h.Type() == m.Type() {
				container = proto.Clone(h)
			}
		}
		into := proto.CloneInto(container, m)
		for i := range aliased {
			aliased[i] ^= 0xFF
		}
		for _, b := range scribble {
			if _, err := dec.Unmarshal(b); err != nil {
				t.Fatalf("scribble decode failed: %v", err)
			}
		}
		var ref proto.Decoder
		want, err := ref.Unmarshal(data)
		if err != nil {
			t.Fatalf("pristine re-decode failed: %v", err)
		}
		wantBytes, err := proto.Marshal(want)
		if err != nil {
			t.Fatalf("re-encode of pristine decode failed: %v", err)
		}
		for name, c := range map[string]proto.Msg{"Clone": cl, "CloneInto": into} {
			got, err := proto.Marshal(c)
			if err != nil {
				t.Fatalf("re-encode of %s failed: %v", name, err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("%s diverged after input scribble:\ncopy     %x\npristine %x", name, got, wantBytes)
			}
		}
	})
}
