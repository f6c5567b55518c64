package proto

// Clone returns a deep copy of m sharing no memory with it. It is the escape
// hatch from the scratch-reuse ownership rules: a receiver that must retain a
// message past its validity window (past the HandleMessage call, past the
// next Decoder.Unmarshal, past a frame Release) clones it first.
func Clone(m Msg) Msg {
	switch v := m.(type) {
	case *Create:
		c := *v
		return &c
	case *Measurement, *Vector, *Urgent, *Batch:
		return CloneInto(nil, m)
	case *Close:
		c := *v
		return &c
	case *Install:
		c := *v
		c.Prog = append([]byte(nil), v.Prog...)
		return &c
	case *SetCwnd:
		c := *v
		return &c
	case *SetRate:
		c := *v
		return &c
	case *Backoff:
		c := *v
		return &c
	case *Snapshot:
		c := *v
		c.Prog = append([]byte(nil), v.Prog...)
		c.State = append([]float64(nil), v.State...)
		return &c
	case *Heartbeat:
		c := *v
		return &c
	case *InstallErr:
		c := *v
		return &c
	}
	return m
}

// CloneInto is Clone for a receiver that keeps its own containers: it
// returns a deep copy of src sharing no memory with it, built in dst when dst
// is a report (Measurement, Vector, Urgent, or a Batch, whose sub-messages
// are reused the same way) of src's concrete type — its Fields, Data and
// Msgs capacity is reused, so a container recycled over a steady stream of
// reports is copied into without allocating. Any other pairing, a nil dst
// included, is exactly Clone(src). The caller must own dst outright; what
// dst held is overwritten.
func CloneInto(dst, src Msg) Msg {
	switch v := src.(type) {
	case *Measurement:
		d, _ := dst.(*Measurement)
		if d == nil {
			d = new(Measurement)
		}
		d.SID, d.Seq = v.SID, v.Seq
		d.Fields = append(d.Fields[:0], v.Fields...)
		return d
	case *Vector:
		d, _ := dst.(*Vector)
		if d == nil {
			d = new(Vector)
		}
		d.SID, d.Seq, d.NumFields = v.SID, v.Seq, v.NumFields
		d.Data = append(d.Data[:0], v.Data...)
		return d
	case *Urgent:
		d, _ := dst.(*Urgent)
		if d == nil {
			d = new(Urgent)
		}
		*d = *v
		return d
	case *Batch:
		d, _ := dst.(*Batch)
		return CloneBatchInto(d, v, nil)
	}
	return Clone(src)
}

// CloneBatchInto is CloneInto for a batch, restricted to the sub-messages
// keep accepts (all of them when keep is nil), in order — how a router takes
// its share of a frame that spans destinations without first building the
// share as a slice. dst may be nil. Sub-messages dst held beyond the copy's
// length stay in its spare capacity for the next reuse.
func CloneBatchInto(dst, src *Batch, keep func(Msg) bool) *Batch {
	if dst == nil {
		dst = new(Batch)
	}
	// Room for the whole frame, whatever keep will take of it: a recycled
	// container then never regrows mid-copy.
	msgs := dst.Msgs[:cap(dst.Msgs)]
	if short := len(src.Msgs) - len(msgs); short > 0 {
		msgs = append(msgs, make([]Msg, short)...)
	}
	n := 0
	for _, sub := range src.Msgs {
		if keep != nil && !keep(sub) {
			continue
		}
		msgs[n] = CloneInto(msgs[n], sub)
		n++
	}
	dst.Msgs = msgs[:n]
	return dst
}
