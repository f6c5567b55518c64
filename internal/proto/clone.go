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
	case *Measurement:
		c := *v
		c.Fields = append([]float64(nil), v.Fields...)
		return &c
	case *Vector:
		c := *v
		c.Data = append([]float64(nil), v.Data...)
		return &c
	case *Urgent:
		c := *v
		return &c
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
