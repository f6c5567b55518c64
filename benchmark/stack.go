package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/ipc"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	ccpruntime "github.com/ccp-repro/ccp/internal/runtime"
)

const (
	numRings  = 2
	numShards = 2
	// scratchRoot holds ring files and doorbell sockets. It is relative so
	// the socket paths stay short whatever the checkout's own path is, and
	// inside the working directory so nothing is written elsewhere.
	scratchRoot = ".bench_tmp"
)

// stack is the agent half of the system under test plus the rings that
// reach it: everything the driver talks to but does not own the logic of.
type stack struct {
	dir      string
	mux      *shmring.Mux
	dp       []*shmring.Endpoint // datapath ends, driven by the driver
	agent    []*shmring.Endpoint // agent ends, served by ServeSet
	rt       *ccpruntime.Runtime
	serveErr chan error
	closed   bool

	// handled counts reports an algorithm has finished with. The closed-loop
	// window is sent minus handled — not decisions, since bbr, timely and a
	// first-report cubic do not answer every report.
	handled atomic.Int64
}

// newStack builds rings, runtime and serve loop. tr is nil for untraced
// runs, in which case nothing wraps the transports.
func newStack(tr *tracer) (*stack, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, serveErr: make(chan error, 1)}
	if err := s.build(tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) build(tr *tracer) error {
	mux, err := shmring.NewMux(filepath.Join(s.dir, "mux.bell"))
	if err != nil {
		return err
	}
	s.mux = mux
	for i := 0; i < numRings; i++ {
		a, b, err := shmring.Pair(filepath.Join(s.dir, fmt.Sprintf("ring%d", i)),
			shmring.Options{}, shmring.Options{Bell: mux.Bell()})
		if err != nil {
			return err
		}
		s.dp = append(s.dp, a)
		s.agent = append(s.agent, b)
		if err := mux.Adopt(b); err != nil {
			return err
		}
	}
	reg := core.NewRegistry()
	for _, info := range algorithms.All() {
		reg.Register(info.Name, s.wrapFactory(info.Factory, tr))
	}
	rt, err := ccpruntime.New(ccpruntime.Config{
		Shards: numShards,
		Agent:  core.AgentConfig{Registry: reg, DefaultAlg: "reno"},
	})
	if err != nil {
		return err
	}
	s.rt = rt
	var set ipc.RecvSet = mux
	if tr != nil {
		set = tr.wrapSet(mux)
	}
	go func() { s.serveErr <- rt.ServeSet(set) }()
	return nil
}

// close stops the serve loop and the shards, waits for both, and removes the
// ring files; a second call does nothing. Closing the datapath ends is what
// makes ServeSet return: each agent end then reports ErrClosed once drained.
func (s *stack) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, e := range s.dp {
		e.Close()
	}
	if s.rt != nil {
		<-s.serveErr
		s.rt.Close()
	}
	for _, e := range s.agent {
		e.Close()
	}
	if s.mux != nil {
		s.mux.Close()
	}
	os.RemoveAll(s.dir)
}

// countingAlg is the thin core.Alg wrapper registered around every real
// factory. It changes no decision: it counts completions for the closed-loop
// window and, in traced runs, stamps entry and exit.
type countingAlg struct {
	inner core.Alg
	s     *stack
	tr    *tracer
}

func (s *stack) wrapFactory(f core.AlgFactory, tr *tracer) core.AlgFactory {
	return func() core.Alg { return &countingAlg{inner: f(), s: s, tr: tr} }
}

func (a *countingAlg) Name() string { return a.inner.Name() }

func (a *countingAlg) Init(f *core.Flow) { a.inner.Init(f) }

func (a *countingAlg) OnMeasurement(f *core.Flow, m core.Measurement) {
	if a.tr != nil && a.tr.on.Load() {
		a.tr.onMeasurement(a.inner, f, m)
	} else {
		a.inner.OnMeasurement(f, m)
	}
	a.s.handled.Add(1)
}

func (a *countingAlg) OnUrgent(f *core.Flow, u core.UrgentEvent) { a.inner.OnUrgent(f, u) }

// Release, ExportState and ImportState forward the optional interfaces the
// agent probes for, so wrapping hides none of them.
func (a *countingAlg) Release(f *core.Flow) {
	if r, ok := a.inner.(core.Releaser); ok {
		r.Release(f)
	}
}

func (a *countingAlg) ExportState(dst []float64) []float64 {
	if e, ok := a.inner.(core.SnapshotExporter); ok {
		return e.ExportState(dst)
	}
	return dst
}

func (a *countingAlg) ImportState(src []float64) bool {
	if e, ok := a.inner.(core.SnapshotExporter); ok {
		return e.ImportState(src)
	}
	return false
}
