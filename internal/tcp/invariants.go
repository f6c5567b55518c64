package tcp

import "fmt"

// CheckInvariants recomputes the sender's bookkeeping from first principles
// and returns an error if the incremental accounting has drifted. It is a
// verification aid for tests and debugging; it never mutates state.
//
//lint:testsupport the oracle of tcp's TestInvariantsUnderRandomLoss, TestDrainAfterLossStops and TestInvariantsWithTSO, and algorithms' TestFlowChurn
func (c *Conn) CheckInvariants() error {
	pipe := 0
	lastEnd := c.sndUna
	for i := range c.segs {
		seg := &c.segs[i]
		if seg.seq < lastEnd {
			return fmt.Errorf("segment %d overlaps previous (seq=%d, lastEnd=%d)", i, seg.seq, lastEnd)
		}
		if seg.seq != lastEnd {
			return fmt.Errorf("segment %d leaves a gap (seq=%d, want %d)", i, seg.seq, lastEnd)
		}
		lastEnd = seg.seq + uint64(seg.length)
		if seg.lost && seg.sacked {
			return fmt.Errorf("segment %d both lost and sacked", i)
		}
		if !seg.lost && !seg.sacked {
			pipe += seg.length
		}
	}
	if lastEnd != c.sndNxt {
		return fmt.Errorf("segments end at %d, sndNxt=%d", lastEnd, c.sndNxt)
	}
	if pipe != c.pipe {
		return fmt.Errorf("pipe accounting drifted: incremental=%d recomputed=%d", c.pipe, pipe)
	}
	if c.pipe < 0 {
		return fmt.Errorf("negative pipe %d", c.pipe)
	}
	if c.cwnd < c.opts.MSS {
		return fmt.Errorf("cwnd %d below one MSS", c.cwnd)
	}
	if c.sndUna > c.sndNxt {
		return fmt.Errorf("sndUna %d beyond sndNxt %d", c.sndUna, c.sndNxt)
	}
	return nil
}
