package randprog

import (
	"encoding/binary"
	"math"
)

// WireCase is a hand-written wire program: the bytes as they cross, not as
// the encoder of the day would write them.
type WireCase struct {
	Name string
	Data []byte
	// Err is text the decoder's refusal contains; empty if Data is accepted.
	Err string
}

// NonCanonical returns one program — a fold with the register r, updated
// from an expression, then Cwnd and Report — spelled every way the program
// format (version 2) has a shorter spelling for, each of which the decoder
// must refuse with an error of its own, and the canonical spellings beside
// them, which it must accept. The bytes are literals on purpose: they pin the
// format, so a change to a tag value fails here.
//
//lint:testsupport the wire fixtures of lang's fuzz and randprog tests and datapath's install tests
func NonCanonical() []WireCase {
	named := func(s string) []byte { return append([]byte{0x63, byte(len(s))}, s...) }
	prog := func(version byte, nregs, dst, update, cwnd []byte, flags byte) []byte {
		b := []byte{0xCC, version, 1} // magic, version, fold mode
		b = append(b, nregs...)
		b = append(b, 1, 'r', 0, 0, 0, 0, 0, 0, 0, 0) // register r, Init 0
		b = append(b, 1)                              // one update
		b = append(b, dst...)
		b = append(b, update...)
		b = append(b, 2, 0x11) // two instructions: Cwnd
		b = append(b, cwnd...)
		return append(b, 0x14, flags) // and Report
	}
	one := binary.LittleEndian.AppendUint64([]byte{0x62}, math.Float64bits(1))
	half := binary.LittleEndian.AppendUint64([]byte{0x62}, math.Float64bits(0.5))
	var (
		n1   = []byte{1}
		r0   = []byte{0x80}                  // register 0
		rtt  = []byte{0x00}                  // pkt.rtt, slot 0
		cwnd = []byte{0x0A}                  // cwnd, slot 10
		sum  = []byte{0x40, 0x80, 0x61, 200} // r + 200
	)
	return []WireCase{
		{"canonical", prog(2, n1, r0, sum, cwnd, 0), ""},
		{"register named by the control half", prog(2, n1, r0, rtt, named("r"), 1), ""},
		{"fractional constant in eight bytes", prog(2, n1, r0, half, cwnd, 0), ""},

		{"version 1 header", prog(1, n1, r0, sum, cwnd, 0), "program format version 1"},
		{"built-in by name in the fold", prog(2, n1, r0, named("pkt.rtt"), cwnd, 0), `built-in variable "pkt.rtt" spelled by name`},
		{"built-in by name in the control half", prog(2, n1, r0, rtt, named("cwnd"), 0), `built-in variable "cwnd" spelled by name`},
		{"declared register by name in the fold", prog(2, n1, r0, named("r"), cwnd, 0), `register "r" spelled by name inside its fold`},
		{"declared register by name as a destination", prog(2, n1, named("r"), rtt, cwnd, 0), `register "r" spelled by name inside its fold`},
		{"small integer in eight bytes", prog(2, n1, r0, rtt, one, 0), "constant 1 in its long form"},
		{"register index out of range", prog(2, n1, r0, []byte{0x81}, cwnd, 0), "register index 1 out of range (1 in scope)"},
		{"register index in the control half", prog(2, n1, r0, rtt, r0, 0), "register index 0 out of range (0 in scope)"},
		{"short register index in its long form", prog(2, n1, r0, []byte{0xFF, 0}, cwnd, 0), "register index 0 in its long form"},
		{"padded count", prog(2, []byte{0x81, 0}, r0, rtt, cwnd, 0), "list length padded to 2 bytes"},
		{"unknown flag bit", prog(2, n1, r0, rtt, cwnd, 2), "bad program flags 0x02"},
	}
}
