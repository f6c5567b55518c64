package proto_test

import (
	"testing"

	"github.com/ccp-repro/ccp/internal/proto"
)

// Benchmarks for the wire codec's two lanes. The package-level
// Marshal/Unmarshal pair preserves the original allocate-per-call behavior
// (fresh output buffer, throwaway Decoder scratch); AppendMarshal plus a
// reused Decoder is the pooled hot path the datapath and agent run on.
// `make benchstat` compares these against bench/baseline.txt.

func benchReport() *proto.Measurement {
	return &proto.Measurement{
		SID: 7, Seq: 42,
		Fields: []float64{0.012, 1.2e6, 1.1e6, 2896, 0, 0, 0.013},
	}
}

func BenchmarkMarshalReport(b *testing.B) {
	m := benchReport()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendMarshalReport(b *testing.B) {
	m := benchReport()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = proto.AppendMarshal(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalReport(b *testing.B) {
	data, err := proto.Marshal(benchReport())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecoderUnmarshalReport(b *testing.B) {
	data, err := proto.Marshal(benchReport())
	if err != nil {
		b.Fatal(err)
	}
	var dec proto.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripReportAlloc(b *testing.B) {
	m := benchReport()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := proto.Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := proto.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripReportReuse(b *testing.B) {
	m := benchReport()
	var buf []byte
	var dec proto.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = proto.AppendMarshal(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
