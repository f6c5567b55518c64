package proto

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshal throws arbitrary message bytes at the decoder, each sealed
// with a valid check so that the body decoder sees it: with the check left to
// chance, almost no mutation would get past it to the varint, bounds and
// canonical-form refusals beneath. The invariants are the §5 safety argument
// applied to the wire: no input may panic the decoder, and anything it
// accepts must be a canonical message — re-encoding it reproduces the frame
// exactly, so a corrupted frame can never silently alias a different valid
// message. Run under `go test -fuzz` for coverage-guided exploration; the
// seed corpus alone runs in the normal test suite.
func FuzzUnmarshal(f *testing.F) {
	var bodies [][]byte
	for _, frame := range retiredFrames() { // refused: seeds for the reserved type bytes
		bodies = append(bodies, frame[:len(frame)-checkLen])
	}
	for _, m := range sampleMsgs() {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, data[:len(data)-checkLen])
	}
	for _, body := range bodies {
		f.Add(body)
		// Truncations and a corrupted type byte seed the error paths.
		f.Add(body[:len(body)/2])
		f.Add(append([]byte{0xFF}, body[1:]...))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{byte(TypeSnapshot), SnapshotVersion, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFuzzBody {
			return
		}
		frame := seal(bytes.Clone(body))
		m, err := Unmarshal(frame)
		if err != nil {
			return
		}
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted message %#v failed to re-marshal: %v", m, err)
		}
		if !bytes.Equal(out, frame) {
			t.Fatalf("non-canonical decode:\n in:  %x\n out: %x\n msg: %#v", frame, out, m)
		}
	})
}

// maxFuzzBody bounds the message bytes the proto fuzz targets try. A longer
// body only runs the same loops longer (the check's, a report's values, a
// program's bytes, which the decoder only slices), and without the bound a
// short smoke run went to minimizing multi-kilobyte inputs: about 5,000
// executions in 10 s from an empty corpus, against some 360,000 with it.
const maxFuzzBody = 512

// FuzzCheck is the check's own target: a frame whose last four bytes are not
// the CRC-32C of the bytes before them is refused, whatever those bytes are.
// Its seeds are valid frames, each a mutation away from one whose check
// fails.
func FuzzCheck(f *testing.F) {
	for _, m := range sampleMsgs() {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > maxFuzzBody+checkLen {
			return
		}
		if len(frame) > checkLen && bytes.Equal(seal(bytes.Clone(frame[:len(frame)-checkLen])), frame) {
			return
		}
		if m, err := Unmarshal(frame); err == nil {
			t.Fatalf("frame %x fails its check, yet decoded as %#v", frame, m)
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
	f.Add(uint32(7), uint32(1448), uint32(14480), uint32(12), uint32(1),
		uint32(40), uint32(2), uint32(9), "10.0.0.1:80", "10.0.0.2:80", "cubic",
		[]byte{0xCC, 2, 0}, 14480.0, 2.5)
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), uint32(0),
		uint32(0), uint32(0), uint32(0), "", "", "", []byte(nil), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, sid, mss, initCwnd,
		ctrlSeq, createSeq, reportSeq, urgentSeq, epoch uint32,
		src, dst, alg string, prog []byte, s0, s1 float64) {
		in := &Snapshot{SID: sid, MSS: mss,
			InitCwnd: initCwnd, CtrlSeq: ctrlSeq, CreateSeq: createSeq,
			ReportSeq: reportSeq, UrgentSeq: urgentSeq, Epoch: epoch,
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
