package lang_test

import (
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	. "github.com/ccp-repro/ccp/internal/lang"
)

// BenchmarkProgramCodec times what is done to a program's bytes per Install,
// on the programs the bundled cubic and vegas install when a flow starts: the
// agent's MarshalProgram, the datapath's UnmarshalProgram (all of it on a
// cold Install; a warm one decodes the control half alone) and the skip-scan
// that finds the measure half. Each lane reports the encoded size as
// wire-bytes; bench/baseline.txt keeps the rows.
func BenchmarkProgramCodec(b *testing.B) {
	for _, info := range algorithms.All() {
		if info.Name != "cubic" && info.Name != "vegas" {
			continue
		}
		progs, _ := core.Describe(info.Factory, 1448)
		p := progs[0]
		data, err := MarshalProgram(p)
		if err != nil {
			b.Fatal(err)
		}
		lane := func(name string, op func()) {
			b.Run(info.Name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(len(data)), "wire-bytes")
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
		lane("marshal", func() {
			if _, err := MarshalProgram(p); err != nil {
				b.Fatal(err)
			}
		})
		lane("unmarshal", func() {
			if _, err := UnmarshalProgram(data); err != nil {
				b.Fatal(err)
			}
		})
		lane("prefix-scan", func() {
			if _, err := MeasurePrefixLen(data); err != nil {
				b.Fatal(err)
			}
		})
	}
}
