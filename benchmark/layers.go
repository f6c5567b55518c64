package main

import (
	"runtime"
	"time"

	"github.com/ccp-repro/ccp/internal/lang"
	"github.com/ccp-repro/ccp/internal/lang/absint"
)

// installParts times the stages of datapath install by replaying captured
// Install.Prog bytes through the same public functions, in the same order,
// that CCP.Deliver and CCP.install call.
type installParts struct {
	unmarshal, validate, analyze, compileFold, compileCtrl acc
	// foldStep is CompiledFold.Step on the captured folds, over the same
	// seeded ACK stream the driver feeds.
	foldStep acc
}

const (
	replayReps     = 8
	foldStepFolds  = 8
	foldStepsPerFn = 1 << 16
)

func since(t time.Time) int64 { return int64(time.Since(t)) }

func replayInstalls(progs [][]byte, seed int64) (installParts, error) {
	var p installParts
	folds := 0
	for _, b := range progs {
		var prog *lang.Program
		for rep := 0; rep < replayReps; rep++ {
			t := time.Now()
			var err error
			prog, err = lang.UnmarshalProgram(b)
			p.unmarshal.add(since(t))
			if err != nil {
				return p, err
			}

			t = time.Now()
			err = prog.Validate()
			p.validate.add(since(t))
			if err != nil {
				return p, err
			}

			t = time.Now()
			_, err = absint.Analyze(prog, absint.Datapath())
			p.analyze.add(since(t))
			if err != nil {
				return p, err
			}

			var regNames []string
			t = time.Now()
			if prog.Measure.Mode == lang.MeasureFold {
				if _, err = lang.CompileFold(prog.Measure.Fold); err != nil {
					return p, err
				}
				regNames = prog.Measure.Fold.RegNames()
			}
			p.compileFold.add(since(t))

			t = time.Now()
			resolve := lang.StdResolver(regNames)
			nvars := lang.VarTableSize(len(regNames))
			for _, in := range prog.Instrs {
				var e lang.Expr
				switch n := in.(type) {
				case lang.SetRate:
					e = n.E
				case lang.SetCwnd:
					e = n.E
				case lang.Wait:
					e = n.Seconds
				case lang.WaitRtts:
					e = n.Rtts
				default:
					continue
				}
				if _, err = lang.Compile(e, resolve); err != nil {
					return p, err
				}
				if _, err = lang.CompileReg(e, resolve, nvars); err != nil {
					return p, err
				}
			}
			p.compileCtrl.add(since(t))
		}
		if prog.Measure.Mode == lang.MeasureFold && folds < foldStepFolds {
			folds++
			if err := timeFoldSteps(prog.Measure.Fold, seed+int64(folds), &p.foldStep); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}

func timeFoldSteps(spec *lang.FoldSpec, seed int64, into *acc) error {
	cf, err := lang.CompileFold(spec)
	if err != nil {
		return err
	}
	vars := make([]float64, cf.FrameLen())
	cf.InitRegs(vars)
	vars[lang.FlowVarSlot(lang.FlowCwnd)] = 10 * mss
	vars[lang.FlowVarSlot(lang.FlowMSS)] = mss
	src := flow{rng: splitmix64(uint64(seed)) | 1, baseRTT: 20 * time.Millisecond, rate: 5e6}
	var vnow time.Duration
	t := time.Now()
	for i := 0; i < foldStepsPerFn; i++ {
		vnow += time.Millisecond
		s := src.nextAck(vnow)
		vars[lang.PktFieldSlot(lang.FieldRTT)] = s.RTT.Seconds()
		vars[lang.PktFieldSlot(lang.FieldAcked)] = float64(s.AckedBytes)
		vars[lang.PktFieldSlot(lang.FieldSndRate)] = s.SndRate
		vars[lang.PktFieldSlot(lang.FieldRcvRate)] = s.DeliveryRate
		vars[lang.PktFieldSlot(lang.FieldInflight)] = float64(s.InFlight)
		vars[lang.PktFieldSlot(lang.FieldNow)] = s.Now.Seconds()
		cf.Step(vars)
	}
	into.addN(since(t), foldStepsPerFn)
	return nil
}

// layerMetrics assembles the per-layer metrics of a traced run. Timings come
// from the traced half; counts are totals over the stack's whole life
// (set-up, warm-up and both halves), so ratios between them are consistent.
func (d *driver) layerMetrics(cfg runConfig, plain, traced phase, dp dpTotals) (*metricSet, error) {
	tr := d.tr
	b, err := tr.analyze(cfg.spanPath)
	if err != nil {
		return nil, err
	}
	parts, err := replayInstalls(tr.progs, cfg.seed)
	if err != nil {
		return nil, err
	}
	var agentSend, dispatch acc
	for _, e := range tr.ends {
		agentSend = agentSend.plus(e.send)
		dispatch = dispatch.plus(e.dispatch)
	}
	rs := d.s.rt.Stats()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	ms := newMetricSet(perLayer)
	ms.set("datapath.onack_ns", tr.onack.mean())
	ms.set("lang.fold_step_ns", parts.foldStep.mean())

	install := tr.deliverInstall.mean()
	partSum := parts.unmarshal.mean() + parts.validate.mean() + parts.analyze.mean() +
		parts.compileFold.mean() + parts.compileCtrl.mean()
	ms.set("datapath.deliver_install_ns", install)
	ms.set("lang.unmarshal_program_ns", parts.unmarshal.mean())
	ms.set("lang.validate_ns", parts.validate.mean())
	ms.set("absint.analyze_ns", parts.analyze.mean())
	ms.set("lang.compile_fold_ns", parts.compileFold.mean())
	ms.set("lang.compile_ctrl_ns", parts.compileCtrl.mean())
	// What Deliver spends on an Install beyond the replayed parts: sequence
	// and liveness bookkeeping, table allocation, restarting the program.
	// The parts are replayed warm and alone, so this can come out negative.
	ms.set("datapath.install_other_ns", install-partSum)
	ms.set("lang.program_bytes", tr.progBytes.mean())

	ms.set("datapath.report_ns", b.report.mean())
	ms.set("datapath.deliver_ctrl_ns", tr.deliverCtrl.mean())
	ms.set("proto.marshal_ns", tr.marshal.mean())
	ms.set("proto.unmarshal_ns", tr.unmarshal.mean())
	ms.set("proto.bytes_up_per_report", ratio(d.c.reportBytes, d.c.reports))
	ms.set("proto.bytes_down_per_decision", ratio(d.c.decisionBytes, d.c.decisions))
	ms.set("proto.frames_up", float64(d.c.framesUp))
	ms.set("proto.frames_down", float64(d.c.framesDown))
	ms.set("shmring.send_ns", tr.sendUp.plus(agentSend).mean())
	ms.set("shmring.empty_polls", float64(d.c.emptyPolls))
	ms.set("shmring.agent_parks", float64(tr.parks.Load()))
	ms.set("shmring.transit_up_ns", b.transitUp.mean())
	ms.set("shmring.transit_down_ns", b.transitDown.mean())
	ms.set("runtime.dispatch_ns", dispatch.mean())
	ms.set("runtime.mailbox_wait_ns", b.mailbox.mean())
	ms.set("runtime.reply_ns", b.reply.mean())
	ms.set("algorithms.on_measurement_ns", b.alg.mean())
	ms.set("algorithms.decisions_per_report", ratio(d.c.answered, d.c.reports))
	ms.set("datapath.init_ns", d.initT.mean())
	ms.set("datapath.close_ns", d.closeT.mean())
	ms.set("core.flows_created", float64(rs.Agent.FlowsCreated))
	ms.set("core.flows_closed", float64(rs.Agent.FlowsClosed))

	ms.set("datapath.acks", float64(dp.acks))
	ms.set("datapath.reports", float64(dp.reports))
	ms.set("datapath.urgents", float64(dp.urgents))
	ms.set("datapath.installs", float64(dp.installs))
	ms.set("datapath.install_rejects", float64(dp.installRejects))
	ms.set("datapath.send_errors", float64(dp.sendErrors))
	ms.set("datapath.stale_ctrl_drops", float64(dp.staleCtrl))
	ms.set("datapath.fallback_entries", float64(dp.fallbackOn))
	ms.set("core.measurements", float64(rs.Agent.Measurements))
	ms.set("core.urgents", float64(rs.Agent.Urgents))
	ms.set("core.stale_reports", float64(rs.Agent.StaleReports))
	ms.set("core.install_errs", float64(rs.Agent.InstallErrs))
	ms.set("runtime.dispatched", float64(rs.Dispatched))
	ms.set("runtime.dropped", float64(rs.Dropped))
	ms.set("runtime.reports_shed", float64(rs.ReportsShed))
	ms.set("runtime.batches_split", float64(rs.BatchesSplit))
	ms.set("runtime.backoffs_sent", float64(rs.BackoffsSent))
	ms.set("process.gc_cycles", traced.gcCycles)
	ms.set("process.gc_pause_ms", traced.gcPauseMs)
	ms.set("process.heap_mb", float64(mem.HeapInuse)/(1<<20))

	// Speed with tracing off: the first, untraced half of this run.
	ms.set("driver.reports_per_s", plain.reportsPerS)
	ms.set("driver.acks_per_s", plain.acksPerS)
	ms.set("driver.cpu_us_per_report", plain.cpuUsPerReport)
	ms.set("driver.flows_per_s", traced.flowsPerS)
	ms.set("driver.late_p50_us", traced.late.percentile(50)/1e3)
	ms.set("driver.late_p99_us", traced.late.percentile(99)/1e3)
	ms.set("driver.loop_p50_us", traced.loopP50/1e3)
	ms.set("driver.loop_p90_us", traced.loop.percentile(90)/1e3)
	ms.set("driver.loop_p99_us", traced.loop.percentile(99)/1e3)
	ms.set("driver.loop_samples", float64(traced.loop.n))
	ms.set("driver.residual_pct", 100*ratio(b.residual, b.loopSum))
	// Open loop is paced, so tracing shows as added latency; closed loop
	// runs flat out, so it shows as lost throughput.
	overhead := 0.0
	if cfg.w.openLoop {
		if plain.loopP50 > 0 {
			overhead = 100 * (traced.loopP50 - plain.loopP50) / plain.loopP50
		}
	} else if plain.reportsPerS > 0 {
		overhead = 100 * (plain.reportsPerS - traced.reportsPerS) / plain.reportsPerS
	}
	ms.set("driver.trace_overhead_pct", overhead)
	return ms, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
