package proto

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshal throws arbitrary bytes at the decoder. The invariants are
// the §5 safety argument applied to the wire: no input may panic the
// decoder, and anything it accepts must be a canonical message — re-encoding
// it reproduces the input bytes exactly, so a corrupted frame can never
// silently alias a different valid message. Run under `go test -fuzz` for
// coverage-guided exploration; the seed corpus alone runs in the normal
// test suite.
func FuzzUnmarshal(f *testing.F) {
	frames := retiredFrames() // refused: seeds for the reserved type bytes
	for _, m := range sampleMsgs() {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, data)
	}
	for _, data := range frames {
		f.Add(data)
		// Truncations and a corrupted type byte seed the error paths.
		f.Add(data[:len(data)/2])
		mut := append([]byte{0xFF}, data[1:]...)
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{byte(TypeInstall), 6, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted message %#v failed to re-marshal: %v", m, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical decode:\n in:  %x\n out: %x\n msg: %#v", data, out, m)
		}
	})
}

// FuzzCreateRoundTrip fuzzes the structured side: any Create that marshals
// must survive a round trip unchanged (field-for-field), and oversized
// strings must be rejected at Marshal, never truncated.
func FuzzCreateRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint32(1448), uint32(14480), uint32(0), "10.0.0.1:80", "10.0.0.2:80", "cubic")
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0xFFFFFFFF), "", "", "")
	f.Fuzz(func(t *testing.T, sid, mss, initCwnd, seq uint32, src, dst, alg string) {
		in := &Create{SID: sid, MSS: mss, InitCwnd: initCwnd, Seq: seq,
			SrcAddr: src, DstAddr: dst, Alg: alg}
		data, err := Marshal(in)
		if err != nil {
			if len(src) <= maxStringLen && len(dst) <= maxStringLen && len(alg) <= maxStringLen {
				t.Fatalf("in-bounds Create rejected: %v", err)
			}
			return
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("marshalled Create failed to decode: %v", err)
		}
		if !reflect.DeepEqual(in, got) {
			t.Fatalf("round trip mismatch:\n in:  %#v\n out: %#v", in, got)
		}
	})
}

// FuzzSnapshotRoundTrip fuzzes the snapshot codec from the structured side:
// any Snapshot that marshals must survive a round trip field-for-field, and
// out-of-bounds inputs must be rejected at Marshal, never truncated. The
// byte-level half of the contract (truncated or corrupt input errors, never
// panics, and accepted bytes are canonical) is covered by FuzzUnmarshal,
// whose seeds include snapshots via sampleMsgs.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint32(7), true, uint32(1448), uint32(14480), uint32(12), uint32(1),
		uint32(40), uint32(2), "10.0.0.1:80", "10.0.0.2:80", "cubic",
		[]byte{0xCC, 2, 0}, 14480.0, 2.5)
	f.Add(uint32(0), false, uint32(0), uint32(0), uint32(0), uint32(0),
		uint32(0), uint32(0), "", "", "", []byte(nil), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, sid uint32, installed bool, mss, initCwnd,
		ctrlSeq, createSeq, reportSeq, urgentSeq uint32,
		src, dst, alg string, prog []byte, s0, s1 float64) {
		in := &Snapshot{SID: sid, Installed: installed, MSS: mss,
			InitCwnd: initCwnd, CtrlSeq: ctrlSeq, CreateSeq: createSeq,
			ReportSeq: reportSeq, UrgentSeq: urgentSeq,
			SrcAddr: src, DstAddr: dst, Alg: alg,
			Prog: prog, State: []float64{s0, s1}}
		data, err := Marshal(in)
		if err != nil {
			if len(src) <= maxStringLen && len(dst) <= maxStringLen &&
				len(alg) <= maxStringLen && len(prog) <= maxProgramSize {
				t.Fatalf("in-bounds Snapshot rejected: %v", err)
			}
			return
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("marshalled Snapshot failed to decode: %v", err)
		}
		gs, ok := got.(*Snapshot)
		if !ok {
			t.Fatalf("decoded %T, want *Snapshot", got)
		}
		if len(gs.Prog) == 0 {
			gs.Prog = nil
		}
		norm := *in
		if len(norm.Prog) == 0 {
			norm.Prog = nil
		}
		if !reflect.DeepEqual(&norm, gs) {
			// NaN state registers compare unequal under DeepEqual; accept a
			// bit-exact re-encode instead.
			re, err := Marshal(gs)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("round trip mismatch:\n in:  %#v\n out: %#v", in, gs)
			}
		}
	})
}
