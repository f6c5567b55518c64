package runtime

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/proto"
)

// FuzzShardFrames puts arbitrary bytes through the HandleFrame path of a
// two-shard runtime, the path ServeSet takes for every frame it receives.
// The input is a mode byte, then a run of frames, each a length byte and that
// many bytes. An odd mode byte seals every frame with a valid check, so that
// the shards' body decoders see it; an even one leaves the check to chance.
// The rule each frame must keep:
//
//   - one too short to route (proto.FrameSID) is counted in DecodeErrors by
//     the dispatcher and not dispatched;
//   - one that routes is dispatched, and counted in DecodeErrors by its shard
//     exactly when its body does not decode;
//   - nothing panics, and after Drain every buffer is back on its shard's free
//     list.
//
// Each shard's mailbox has one slot and every frame is drained before the
// next, so a shard that has received anything owns exactly one buffer: a
// path that lost one would leave the list empty, one that returned it twice
// would leave two.
func FuzzShardFrames(f *testing.F) {
	var seed []byte
	for _, m := range []proto.Msg{
		&proto.Create{SID: 1, MSS: 1448, InitCwnd: 14480, Alg: "plod"},
		&proto.Create{SID: 2, MSS: 1448, InitCwnd: 14480},
		&proto.Measurement{SID: 1, Seq: 1, Fields: []float64{0.01, 1e6, 1e6, 1448, 0, 0, 0.01}},
		&proto.Measurement{SID: 1, Seq: 2, Epoch: 3, Fields: []float64{0.01, 1e6, 1448}}, // a fold's, epoch 3
		&proto.Measurement{SID: 2, Seq: 1, Epoch: 200, Fields: []float64{1, 2, 3, 4}},    // two rows of two
		&proto.Urgent{SID: 2, Seq: 1, Kind: proto.UrgentDupAck, Value: 1448},
		&proto.InstallErr{SID: 1, Seq: 1, Reason: "refused"},
		&proto.InstallErr{SID: 1, Seq: 2, Epoch: 1, Reason: "refused", Prog: []byte{0xCC, 2, 0, 1, 0x14, 0}}, // names the program in force
		&proto.Heartbeat{SID: 1, Seq: 1, SentAt: 1.5},
		&proto.Close{SID: 1},
	} {
		b, err := proto.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		body := b[:len(b)-4]
		seed = append(append(seed, byte(len(body))), body...)
		f.Add(append([]byte{0, byte(len(b) - 1)}, b[:len(b)-1]...))          // truncated: fails its check
		f.Add(append([]byte{1, byte(len(body) - 1)}, body[:len(body)-1]...)) // truncated body, sealed
	}
	f.Add(append([]byte{1}, seed...))
	f.Add([]byte{1, 2, 0xFF, 0xFF, 5, 0xFF, 1, 0, 0, 0})

	reg := core.NewRegistry()
	reg.Register("plod", func() core.Alg { return ploddingAlg{} })
	cfg := Config{Shards: 2, Agent: core.AgentConfig{Registry: reg, DefaultAlg: "plod"}}
	reply := func([]byte) error { return nil }
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sealed := data[0]&1 == 1
		data = data[1:]
		rt, err := newRuntime(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		owned := make([]int, len(rt.shards)) // buffers each shard must hold
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			frame := data[1 : 1+n]
			data = data[1+n:]
			if sealed {
				frame = seal(frame)
			}

			before := rt.Stats()
			rt.HandleFrame(frame, reply)
			rt.Drain()
			after := rt.Stats()

			sid, routable := proto.FrameSID(frame)
			_, decErr := proto.Unmarshal(frame)
			var wantDispatched, wantBad int64
			if routable {
				wantDispatched = 1
				owned[int(sid)%len(rt.shards)] = 1
			}
			if decErr != nil {
				wantBad = 1
			}
			if d, b := after.Dispatched-before.Dispatched, after.DecodeErrors-before.DecodeErrors; d != wantDispatched || b != wantBad {
				t.Fatalf("frame %x (routable %v, decode error %v): dispatched %d, decode errors %d; want %d and %d",
					frame, routable, decErr, d, b, wantDispatched, wantBad)
			}
			for i, sh := range rt.shards {
				sh.mail.mu.Lock()
				free, queued := len(sh.mail.free), sh.mail.n
				sh.mail.mu.Unlock()
				if queued != 0 || free != owned[i] {
					t.Fatalf("after frame %x and Drain, shard %d has %d queued and %d buffers free, want 0 and %d",
						frame, i, queued, free, owned[i])
				}
			}
		}
	})
}

// seal appends a valid check to a copy of body, as proto.AppendMarshal ends
// every frame.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...),
		crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}
