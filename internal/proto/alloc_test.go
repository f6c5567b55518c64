package proto_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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

// TestAllocsSnapshotRoundTrip pins the HA replication path: a primary
// streaming periodic snapshots and a standby decoding them must not touch
// the heap per message once warmed up. The decoder's string interning
// (identity fields repeat every snapshot) is what makes the decode side
// zero-alloc; this is the regression test for it.
func TestAllocsSnapshotRoundTrip(t *testing.T) {
	m := &proto.Snapshot{
		SID: 7, MSS: 1448, InitCwnd: 14480,
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
	got1 := copyMsg(t, m1).(*proto.Measurement)
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

// copyMsg deep-copies m by the codec round trip: Marshal into a fresh buffer,
// then Unmarshal into fresh structs, whose aliases (the programs:
// Install.Prog, InstallErr.Prog, Snapshot.Prog) are into that buffer.
func copyMsg(t *testing.T, m proto.Msg) proto.Msg {
	t.Helper()
	b, err := proto.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := proto.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestInstallProgAliasesInput documents the decoder's one deliberate aliasing
// choice: a program (Install.Prog here; InstallErr.Prog and Snapshot.Prog
// alike) is a view of the input buffer, not a copy. Callers
// that outlive the buffer must copy the bytes, or the message by the codec
// round trip.
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
	cl := copyMsg(t, got).(*proto.Install)
	for i := range data {
		data[i] = 0xAA
	}
	if bytes.Equal(inst.Prog, []byte{1, 2, 3, 4}) {
		t.Fatal("Install.Prog did not alias the input buffer; the zero-copy view was lost")
	}
	if !bytes.Equal(cl.Prog, []byte{1, 2, 3, 4}) {
		t.Fatalf("the round-trip copy aliased the input buffer: %v", cl.Prog)
	}
}

// FuzzDecoderAliasing decodes arbitrary message bytes, sealed with a valid
// check so that they reach the body decoder, deep-copies the result by the
// codec round trip, then scribbles over the input buffer and the decoder's
// scratch. The copy must match a pristine decode — i.e. the round trip must
// sever every alias the scratch decoder keeps into the input (Install.Prog,
// InstallErr.Prog and Snapshot.Prog in particular). Messages are compared
// through their canonical re-encoding, which is insensitive to
// nil-versus-empty slice differences.
func FuzzDecoderAliasing(f *testing.F) {
	for _, m := range []proto.Msg{
		&proto.Install{SID: 1, Seq: 2, Prog: []byte{9, 9, 9}},
		&proto.InstallErr{SID: 1, Seq: 3, Epoch: 2, Reason: "no", Prog: []byte{8, 8}},
		&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{1, 2, 3}},
		&proto.Measurement{SID: 1, Seq: 2, Epoch: 300, Fields: []float64{0.5, 0.25}},
		&proto.Snapshot{SID: 1, Alg: "reno", Prog: []byte{7, 7}, State: []float64{4}},
	} {
		data, err := proto.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:len(data)-4]) // the message without its check
	}
	// Decoding these again is the scribble over the decoder's report scratch.
	reports := []proto.Msg{
		&proto.Measurement{SID: 0xEE, Seq: 0xEE, Fields: []float64{-1, -1, -1, -1}},
		&proto.Urgent{SID: 0xEE, Seq: 0xEE, Kind: proto.UrgentECN, Value: -1},
	}
	var scribble [][]byte
	for _, m := range reports {
		data, err := proto.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		scribble = append(scribble, data)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 { // the bound FuzzUnmarshal keeps, for the same reason
			return
		}
		data = binary.LittleEndian.AppendUint32(bytes.Clone(data), crc32.Checksum(data, castagnoli))
		aliased := append([]byte(nil), data...)
		var dec proto.Decoder
		m, err := dec.Unmarshal(aliased)
		if err != nil {
			return
		}
		cl := copyMsg(t, m)
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
		got, err := proto.Marshal(cl)
		if err != nil {
			t.Fatalf("re-encode of the copy failed: %v", err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("the copy diverged after input scribble:\ncopy     %x\npristine %x", got, wantBytes)
		}
	})
}
