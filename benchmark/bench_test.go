package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ccp-repro/ccp/internal/algorithms"
	"github.com/ccp-repro/ccp/internal/bufpool"
	"github.com/ccp-repro/ccp/internal/core"
	"github.com/ccp-repro/ccp/internal/ipc/shmring"
	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/proto"
	ccpruntime "github.com/ccp-repro/ccp/internal/runtime"
)

// benchmarkJSON is the repo's BENCHMARK.json, located before TestMain moves
// to a scratch directory (ring files and doorbells are created relative to
// the working directory).
var benchmarkJSON string

func TestMain(m *testing.M) {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	benchmarkJSON = filepath.Join(wd, "..", "BENCHMARK.json")
	tmp, err := os.MkdirTemp("", "ccp-benchmark-test-")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(tmp); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// small shrinks a workload to test size: 32 flows, a fraction of a second.
func small(w workload, trace bool, spans string) runConfig {
	w.flows = 32
	return runConfig{
		w: w, seed: 7, seconds: 0.3, trace: trace,
		warmup: 50 * time.Millisecond, minSetups: 1, maxSetups: 1,
		spanPath: spans,
	}
}

// TestDeclaredMetricsMatchBenchmarkFile pins the Go tables against
// BENCHMARK.json: same workloads with the same reasons, same metric names
// and units, in the same order.
func TestDeclaredMetricsMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bf.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json says %s [%s], the benchmark %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bf.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json says %s [%s], the benchmark %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
}

func checkMetrics(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.name)
		case v.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s is %v", d.name, v.Value)
		case nonZero && v.Value == 0:
			t.Errorf("end-to-end metric %s is 0", d.name)
		}
	}
}

// TestEveryWorkload runs each workload small, untraced and traced: every
// declared metric comes out once, finite, with its unit; no operation fails;
// and the traced run's spans nest and add up.
func TestEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := run(small(w, false, ""))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			checkMetrics(t, res, endToEnd, true)
			checkMetrics(t, result{Metrics: res.Timing}, timing, true)

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err = run(small(w, true, spans))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("traced: correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			checkMetrics(t, res, perLayer, false)
			if n := res.Metrics["driver.loop_samples"].Value; n < 1 {
				t.Errorf("traced run closed %v loops", n)
			}
			checkSpanFile(t, spans)
		})
	}
}

// checkSpanFile re-reads a span file: spans of one report share an id, every
// child lies inside its parent, no self time is negative, and the self times
// of a loop's tree add up to the loop — stages plus residual is the whole.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var group []span
	loops := 0
	check := func() {
		if len(group) == 0 {
			return
		}
		self := selfTimes(group, nil)
		var tree int64
		for i, s := range group {
			if self[i] < 0 {
				t.Errorf("span %s of %x has self time %d", s.Name, s.ID, self[i])
			}
			if s.End < s.Start {
				t.Errorf("span %s of %x ends before it starts", s.Name, s.ID)
			}
			root := i
			for group[root].Parent >= 0 {
				root = group[root].Parent
			}
			if s.Parent >= 0 {
				if p := group[s.Parent]; s.Start < p.Start || s.End > p.End {
					t.Errorf("span %s [%d,%d] of %x leaves its parent %s [%d,%d]", s.Name, s.Start, s.End, s.ID, p.Name, p.Start, p.End)
				}
			}
			if group[root].Name == spLoop {
				tree += self[i]
			}
		}
		if group[0].Name != spLoop {
			t.Errorf("first span of %x is %s, want %s", group[0].ID, group[0].Name, spLoop)
		} else if d := group[0].End - group[0].Start; tree != d {
			t.Errorf("self times under loop %x add to %d, loop lasted %d", group[0].ID, tree, d)
		}
		loops++
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if len(group) > 0 && (s.ID != group[0].ID || s.Name == spLoop) {
			check()
			group = group[:0]
		}
		group = append(group, s)
	}
	check()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if loops == 0 {
		t.Error("span file holds no loop")
	}
}

// decisions feeds a seeded message stream to an inline runtime and returns
// the bytes of every decision it sends back, in order.
func decisions(t *testing.T, send func(m proto.Msg, reply func(proto.Msg) error)) [][]byte {
	t.Helper()
	var out [][]byte
	reply := func(m proto.Msg) error {
		b, err := proto.Marshal(m)
		out = append(out, b)
		return err
	}
	src := flow{rng: 12345, baseRTT: 20 * time.Millisecond, rate: 5e6}
	algs := []string{"cubic", "vegas", "bbr", "reno", "timely"}
	for i, alg := range algs {
		send(&proto.Create{SID: uint32(i + 1), MSS: mss, InitCwnd: 10 * mss, Alg: alg}, reply)
	}
	for seq := uint32(1); seq <= 40; seq++ {
		for i := range algs {
			s := src.nextAck(time.Duration(seq) * 50 * time.Millisecond)
			sid := uint32(i + 1)
			if seq%9 == 0 {
				send(&proto.Urgent{SID: sid, Seq: seq, Kind: proto.UrgentDupAck, Value: mss}, reply)
			}
			// Three fields read as cubic's (acked, rtt_f, dp_now) registers,
			// vegas's first two, and the head of the EWMA report alike.
			send(&proto.Measurement{SID: sid, Seq: seq, Fields: []float64{
				8 * mss, s.RTT.Seconds(), float64(seq) * 0.05, 8 * mss, 0, 0, s.RTT.Seconds()}}, reply)
		}
	}
	return out
}

// TestWrappersAreTransparent runs one seeded stream twice on an inline
// runtime: once bare, and once with the counting algorithm wrapper (tracing
// on) and every frame carried through a traced ring end in both directions.
// The decisions must be byte-identical.
func TestWrappersAreTransparent(t *testing.T) {
	bareRT, err := ccpruntime.New(ccpruntime.Config{
		Agent: core.AgentConfig{Registry: algorithms.NewRegistry(), DefaultAlg: "reno"}})
	if err != nil {
		t.Fatal(err)
	}
	bare := decisions(t, bareRT.HandleMessage)

	// Wrapped: algorithms behind countingAlg, frames through a traced end.
	tr := newTracer()
	tr.attach(&driver{flows: make([]flow, 8), epoch: time.Now()})
	tr.start(time.Second)
	s := &stack{}
	reg := core.NewRegistry()
	for _, info := range algorithms.All() {
		reg.Register(info.Name, s.wrapFactory(info.Factory, tr))
	}
	rt, err := ccpruntime.New(ccpruntime.Config{Agent: core.AgentConfig{Registry: reg, DefaultAlg: "reno"}})
	if err != nil {
		t.Fatal(err)
	}
	dp, ag, err := shmring.Pair(filepath.Join(t.TempDir(), "ring"), shmring.Options{}, shmring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	defer ag.Close()
	end := &tracedEnd{tr: tr, inner: ag}
	var dec, back proto.Decoder
	wrapped := decisions(t, func(m proto.Msg, reply func(proto.Msg) error) {
		up, err := proto.MarshalFrame(m)
		if err != nil {
			t.Fatal(err)
		}
		rec := int32(-1)
		if v, ok := m.(*proto.Measurement); ok && tr.sample(0, tr.now(), 8) {
			rec = tr.commit(v.SID, v.Seq)
		}
		tr.pushUp(0, rec)
		err = dp.Send(up.B)
		up.Release()
		if err != nil {
			t.Fatal(err)
		}
		f, err := end.TryRecvFrame()
		if err != nil || f == nil {
			t.Fatalf("traced end returned no frame: %v", err)
		}
		got, err := dec.Unmarshal(f.B)
		if err != nil {
			t.Fatal(err)
		}
		// Replies travel the traced end's Send and come back off the ring.
		rt.HandleMessage(got, func(m proto.Msg) error {
			down, err := proto.MarshalFrame(m)
			if err != nil {
				return err
			}
			err = end.Send(down.B)
			down.Release()
			if err != nil {
				return err
			}
			df, err := dp.TryRecvFrame()
			if err != nil || df == nil {
				t.Fatalf("no decision frame on the ring: %v", err)
			}
			dm, err := back.Unmarshal(df.B)
			if err == nil {
				err = reply(dm)
			}
			df.Release()
			return err
		})
		f.Release()
	})

	if len(bare) == 0 || len(bare) != len(wrapped) {
		t.Fatalf("bare run made %d decisions, wrapped run %d", len(bare), len(wrapped))
	}
	for i := range bare {
		if !bytes.Equal(bare[i], wrapped[i]) {
			t.Fatalf("decision %d differs:\n bare    %x\n wrapped %x", i, bare[i], wrapped[i])
		}
	}
	if tr.nrec == 0 || tr.recs[0].algIn == 0 || tr.recs[0].agSendOut == 0 {
		t.Errorf("tracing was on but recorded nothing: %d records, first %+v", tr.nrec, tr.recs[0])
	}
	if got := s.handled.Load(); got != 200 {
		t.Errorf("wrapper counted %d reports handled, want 200", got)
	}
}

// TestFailuresAreCounted corrupts a frame and sends a program outside the
// verifier's bounds into a live stack: both must surface as failed
// operations with the run marked incorrect, not vanish.
func TestFailuresAreCounted(t *testing.T) {
	w, _ := workloadByName("reinstall")
	w.flows = 8
	s, err := newStack(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	d := newDriver(w, 3, s, nil)
	if err := d.setup(); err != nil {
		t.Fatal(err)
	}
	d.drive(50 * time.Millisecond)
	if err := d.quiesce(); err != nil {
		t.Fatal(err)
	}
	if failed, why, _ := d.verify(); failed != 0 {
		t.Fatalf("clean run already has %d failures: %v", failed, why)
	}

	d.handleFrame(bufpool.Wrap([]byte{0xff, 0x01, 0x02, 0x03}))

	prog, err := lang.MarshalProgram(lang.NewProgram().MeasureEWMA().
		Cwnd(lang.C(1e15)).WaitRtts(1).Report().MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := proto.MarshalFrame(&proto.Install{SID: 1, Seq: 1 << 20, Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	d.handleFrame(frame)

	if err := d.quiesce(); err != nil {
		t.Fatal(err)
	}
	failed, why, dp := d.verify()
	all := strings.Join(why, "; ")
	if d.c.decodeErrs != 1 || !strings.Contains(all, "decode errors: 1") {
		t.Errorf("corrupted frame not counted: %v", why)
	}
	if dp.installRejects != 1 || !strings.Contains(all, "datapath install rejects: 1") {
		t.Errorf("out-of-bounds program not counted: %v", why)
	}
	if d.c.installErrs != 1 {
		t.Errorf("the refusal was not reported back to the agent: %v", why)
	}
	if failed < 3 {
		t.Errorf("%d failed operations, want at least 3: %v", failed, why)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, p := range []float64{50, 90, 99} {
		want := p / 100 * 100000
		if got := h.percentile(p); math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%v = %v, want %v within 1%%", p, got, want)
		}
	}
	var empty hist
	if got := empty.percentile(50); got != 0 {
		t.Errorf("empty histogram p50 = %v", got)
	}
	h = hist{}
	h.add(-5)
	h.add(math.MaxInt64)
	if got := h.percentile(100); got < float64(math.MaxInt64)/2 {
		t.Errorf("largest value lost: p100 = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles against values computed with
// Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf := benchmarkFile{
		Workloads: []benchWorkload{{Name: "w"}},
		EndToEnd: []benchMetric{
			{Name: "lat", Unit: "x", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "x", Better: "higher", Bound: 0.10},
		},
	}
	mk := func(lat, rate []float64) side {
		return side{"w": {"lat": lat, "rate": rate}}
	}
	base := mk([]float64{100, 101, 99, 100}, []float64{1000, 1001, 999, 1000})
	if code := compareSides(bf, base, mk([]float64{105}, []float64{950})); code != 0 {
		t.Errorf("within bounds: exit %d, want 0", code)
	}
	if code := compareSides(bf, base, mk([]float64{115}, []float64{1000})); code != 1 {
		t.Errorf("latency 15%% worse: exit %d, want 1", code)
	}
	if code := compareSides(bf, base, mk([]float64{100}, []float64{850})); code != 1 {
		t.Errorf("rate 15%% worse: exit %d, want 1", code)
	}
	if code := compareSides(bf, base, mk([]float64{80}, []float64{1200})); code != 0 {
		t.Errorf("both better: exit %d, want 0", code)
	}
	// A spread wider than the bound is unresolved, not a breach.
	noisy := mk([]float64{90, 150, 100, 160, 120}, []float64{1000, 1000, 1000, 1000, 1000})
	if code := compareSides(bf, base, noisy); code != 0 {
		t.Errorf("noisy candidate: exit %d, want 0 (unresolved)", code)
	}
	if code := compareSides(bf, base, side{"w": {"lat": {100}}}); code != 2 {
		t.Errorf("missing metric: exit %d, want 2", code)
	}
}

func TestPercentileOf(t *testing.T) {
	if got := percentileOf([]float64{5, 1, 3, 2, 4, 6, 7, 8, 9, 10, 11}, 10); got != 2 {
		t.Errorf("lower decile of 1..11 = %v, want 2", got)
	}
	if got := percentileOf([]float64{10, 20}, 10); got != 11 {
		t.Errorf("lower decile of 10,20 = %v, want 11", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "loop", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 40, End: 90},
		{Name: "b.inner", Parent: 2, Start: 50, End: 60},
	}
	if got := fmt.Sprint(selfTimes(spans, nil)); got != "[20 30 40 10]" {
		t.Errorf("self times %s, want [20 30 40 10]", got)
	}
}

// TestQuietState pins the waiting rule: no reference, no waiting; a probe
// well under the usual speed waits until either cap; history is bounded, its
// upper quartile is the reference, and the state survives the file.
func TestQuietState(t *testing.T) {
	os.Remove(quietPath())
	q := loadQuiet()
	if q.mayWait(1, 0) {
		t.Error("waits without any history")
	}
	for _, v := range []float64{100, 90, 110, 105} {
		q.record(v)
	}
	if ref, ok := q.reference(); !ok || ref != 106.25 {
		t.Errorf("reference = %v, %v; want the upper quartile 106.25", ref, ok)
	}
	if q.mayWait(95, 0) {
		t.Error("waits on a probe within the usual scatter")
	}
	if !q.mayWait(70, 0) {
		t.Error("does not wait on a probe at two thirds of the reference")
	}
	if q.mayWait(70, quietRunCap) {
		t.Error("waits past the per-run cap")
	}
	q.WaitedS = quietTotalCap.Seconds()
	if q.mayWait(70, 0) {
		t.Error("waits past the total cap")
	}
	for i := 0; i < 3*quietHistory; i++ {
		q.record(50)
	}
	if n := len(q.Speeds); n != quietHistory {
		t.Errorf("history holds %d probes, want %d", n, quietHistory)
	}
	if err := q.save(); err != nil {
		t.Fatal(err)
	}
	if back := loadQuiet(); len(back.Speeds) != quietHistory || back.WaitedS != q.WaitedS {
		t.Errorf("state did not survive the file: %+v", back)
	}
	if err := os.WriteFile(quietPath(), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if back := loadQuiet(); len(back.Speeds) != 0 || back.mayWait(1, 0) {
		t.Errorf("corrupt state was not discarded: %+v", back)
	}
	os.Remove(quietPath())
}

// TestAwaitQuietRecordsAProbe runs the probe: with no history it must not
// wait, and it must leave its probe behind.
func TestAwaitQuietRecordsAProbe(t *testing.T) {
	os.Remove(quietPath())
	waited, err := awaitQuiet()
	if err != nil {
		t.Fatal(err)
	}
	if waited != 0 {
		t.Errorf("waited %v with no history", waited)
	}
	if h := loadQuiet().Speeds; len(h) != 1 || h[0] <= 0 {
		t.Errorf("probe history %v, want one positive speed", h)
	}
	os.Remove(quietPath())
}
