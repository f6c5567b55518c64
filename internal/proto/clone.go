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
	case *Measurement, *Vector, *Urgent:
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
// is a report (Measurement, Vector or Urgent) of src's concrete type — its
// Fields and Data capacity is reused, so a container recycled over a steady
// stream of reports is copied into without allocating. Any other pairing, a
// nil dst included, is exactly Clone(src). The caller must own dst outright;
// what dst held is overwritten.
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
	}
	return Clone(src)
}
