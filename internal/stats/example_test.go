package stats_test

import (
	"fmt"

	"github.com/ccp-repro/ccp/internal/stats"
)

// ExampleSamples computes the percentile summary used by the Figure 2
// report.
func ExampleSamples() {
	var rtts stats.Samples
	for _, us := range []float64{11, 12, 12, 13, 14, 48, 80} {
		rtts.Add(us)
	}
	fmt.Printf("p50=%.0fµs p99=%.0fµs\n", rtts.Percentile(50), rtts.Percentile(99))
	// Output:
	// p50=13µs p99=78µs
}
