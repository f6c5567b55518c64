package main

import (
	"os"
	"testing"
	"time"
)

// TestMain serves instead of testing when setup's forkServer re-executes this
// test binary as the echo peer (`<binary> -serve <path> ...`), so the test
// measures two processes exactly as the command does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestTwoProcessRTT is Figure 2's measurement at smoke size: every
// transport, idle and busy, each against an echo peer in a second process.
// Every sample must come back intact (MeasureRTT compares each echo with what
// it sent); under -short that is all it checks. Otherwise it also holds the
// paper's claim: an idle p99 under 5 ms, negligible against WAN RTTs.
func TestTwoProcessRTT(t *testing.T) {
	samples, warmup := 1000, 100
	if testing.Short() {
		samples, warmup = 100, 10
	}
	for _, tr := range []string{"shmring", "unixgram", "unix"} {
		for _, busy := range []bool{false, true} {
			cpu := "idle"
			if busy {
				cpu = "busy"
			}
			t.Run(tr+"/"+cpu, func(t *testing.T) {
				client, cleanup, err := setup(tr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cleanup) // kills and reaps the echo peer, pass or fail
				// A lost echo would block the receive for good; closing the
				// client fails it instead.
				watchdog := time.AfterFunc(time.Minute, func() { client.Close() })
				defer watchdog.Stop()
				s, err := measure(client, samples, warmup, 64, busy)
				if err != nil {
					t.Fatal(err)
				}
				if s.Len() != samples {
					t.Fatalf("%d samples, want %d", s.Len(), samples)
				}
				if p99 := time.Duration(s.Percentile(99)); !busy && !testing.Short() && p99 > 5*time.Millisecond {
					t.Fatalf("idle p99 %v: not negligible against WAN RTTs", p99)
				}
			})
		}
	}
}
