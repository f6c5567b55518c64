package supervise

import (
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// FuzzStandbyApply feeds arbitrary replication-stream frames to a Standby,
// the input a warm standby takes from outside its process, and promotes it
// into a fresh one-shard runtime. The input is a run of frames, each a
// length byte and that many bytes. Nothing may panic; each frame that does
// not decode, or is not a snapshot, is counted Unexpected exactly once; and
// every flow the store holds is either restored or counted a RestoreError.
func FuzzStandbyApply(f *testing.F) {
	var seed []byte
	primary := buildPrimary(f)
	if _, err := Replicate(primary, true, func(b []byte) error {
		seed = append(append(seed, byte(len(b))), b...)
		f.Add(append([]byte{byte(len(b))}, b...))
		f.Add(append([]byte{byte(len(b) - 1)}, b[:len(b)-1]...)) // truncated
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	for _, m := range []proto.Msg{
		&proto.Snapshot{SID: 1, Closed: true},
		&proto.Snapshot{SID: 3, Alg: "bbr", MSS: 1448, State: []float64{1, 2, 3}},
		&proto.Close{SID: 1},
		&proto.Heartbeat{SID: 0, Seq: 1, SentAt: 1},
	} {
		b, err := proto.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(append(seed, byte(len(b))), b...)
	}
	f.Add(seed)
	f.Add([]byte{2, 0xFF, 0xFF, 0})

	cfg := runtime.Config{Shards: 1, Agent: core.AgentConfig{Registry: algorithms.NewRegistry(), DefaultAlg: "cubic"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		sb := NewStandby()
		wantUnexpected := 0
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			frame := data[1 : 1+n]
			data = data[1+n:]
			if m, err := proto.Unmarshal(frame); err != nil || m.Type() != proto.TypeSnapshot {
				wantUnexpected++
			}
			sb.Apply(frame)
		}
		if got := sb.Stats().Unexpected; got != wantUnexpected {
			t.Fatalf("unexpected = %d, want %d", got, wantUnexpected)
		}
		rt, err := runtime.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		sb.RestoreInto(rt)
		restored, failed := rt.Stats().Agent.Restores, sb.Stats().RestoreErrors
		if restored+int64(failed) != int64(sb.FlowCount()) {
			t.Fatalf("%d restored and %d failed of %d flows held", restored, failed, sb.FlowCount())
		}
	})
}
