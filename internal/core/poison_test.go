//go:build debugpool

package core

import (
	"bytes"
	"testing"

	"github.com/ccp-repro/ccp/internal/proto"
)

// TestPoisonedReplyExposesKeptFrame: under -tags debugpool the agent
// overwrites its output frame as soon as a reply returns, so a reply that
// kept the slice it was lent reads poison, not a plausible decision that the
// agent's next one would silently rewrite; a reply that copied it keeps the
// decision it was sent.
func TestPoisonedReplyExposesKeptFrame(t *testing.T) {
	alg := &recordAlg{onInit: func(f *Flow) { f.SetCwnd(28960) }}
	a := newTestAgent(t, alg, nil)
	var kept, copied []byte
	a.HandleMessage(createMsg(1), func(frame []byte) error {
		kept, copied = frame, bytes.Clone(frame)
		return nil
	})
	if len(kept) == 0 {
		t.Fatal("Init's SetCwnd reached no reply")
	}
	for i, c := range kept {
		if c != 0xDB {
			t.Fatalf("kept frame byte %d = %#x after the reply returned, want poison", i, c)
		}
	}
	m, err := proto.Unmarshal(copied)
	if err != nil {
		t.Fatalf("the copied frame does not decode: %v", err)
	}
	if sc, ok := m.(*proto.SetCwnd); !ok || sc.SID != 1 || sc.Bytes != 28960 {
		t.Fatalf("the copied frame decodes to %+v, want flow 1's SetCwnd of 28960", m)
	}
}
