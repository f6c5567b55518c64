package supervise

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
	"github.com/ccp-repro/ccp/internal/runtime"
)

// FuzzStandbyApply feeds arbitrary replication-stream frames to a Standby,
// the input a warm standby takes from outside its process, and promotes it
// into a fresh one-shard runtime. The input is a mode byte, then a run of
// frames, each a length byte and that many bytes; an odd mode byte seals
// every frame with a valid check, so that the decoder's body checks see it. Nothing may panic; each frame that does
// not decode, or is not a snapshot, is counted Unexpected exactly once; and
// every flow the store holds is either restored or counted a RestoreError.
func FuzzStandbyApply(f *testing.F) {
	var seed []byte
	primary := buildPrimary(f)
	if _, err := Replicate(primary, true, func(b []byte) error {
		body := b[:len(b)-4]
		seed = append(append(seed, byte(len(body))), body...)
		f.Add(append([]byte{1, byte(len(body))}, body...))
		f.Add(append([]byte{0, byte(len(b) - 1)}, b[:len(b)-1]...))          // truncated: fails its check
		f.Add(append([]byte{1, byte(len(body) - 1)}, body[:len(body)-1]...)) // truncated body, sealed
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
		seed = append(append(seed, byte(len(b)-4)), b[:len(b)-4]...)
	}
	f.Add(append([]byte{1}, seed...))
	f.Add([]byte{1, 2, 0xFF, 0xFF, 0})
	castagnoli := crc32.MakeTable(crc32.Castagnoli)

	cfg := runtime.Config{Shards: 1, Agent: core.AgentConfig{Registry: algorithms.NewRegistry(), DefaultAlg: "cubic"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sealed := data[0]&1 == 1
		data = data[1:]
		sb := NewStandby()
		wantUnexpected := 0
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			frame := data[1 : 1+n]
			data = data[1+n:]
			if sealed {
				frame = binary.LittleEndian.AppendUint32(append([]byte(nil), frame...), crc32.Checksum(frame, castagnoli))
			}
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
