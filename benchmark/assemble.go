package main

import (
	"fmt"
	"path/filepath"
	"time"

	"channeldns/internal/core"
	"channeldns/internal/schedule"
	"channeldns/internal/telemetry"
)

// solverWorkload runs one of the three core-driven workloads and turns its
// samples into metrics.
func solverWorkload(o runOpts, dir string) (*report, error) {
	sp := solverSpecs[o.workload]
	minRounds := 3
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		minRounds = 1 // cycles of the variants
	}
	if o.quick {
		sp, minRounds, budget = sp.quick(), 1, 0
		if o.traced {
			minRounds = 2 // so the CPU profile has samples of every layer
		}
	}
	if o.traced {
		// Rounds take the first part of the run, the layer microbenchmarks
		// the rest.
		budget = budget * 60 / 100
	}
	var rec *spanRecorder
	if o.traced {
		rec = newSpanRecorder(o.workload)
	}
	out := runSolver(sp, o.seed, budget, minRounds, rec, dir)
	rep := &report{metrics: map[string]float64{}, attempted: out.attempted, failed: out.failed,
		problems: out.problems, energy: out.energy, ruler: out.ruler}
	rep.notes = append(rep.notes, out.describe(sp))
	if !o.traced {
		if len(out.setup) == 0 || len(out.steps) == 0 || len(out.restart) == 0 {
			return nil, fmt.Errorf("%s produced no samples: %v", o.workload, out.problems)
		}
		endToEnd(rep, out.setup, out.steps, out.restart, &out.rss)
		return rep, nil
	}
	hostMetrics(rep.metrics, out.ruler, out.measured, sp.smoke)
	if err := tracedSolverMetrics(rep.metrics, sp, out); err != nil {
		return nil, err
	}
	return rep, writeSpans(o, rep, rec)
}

func (o *solverOut) describe(sp solverSpec) string {
	return fmt.Sprintf(
		"%s %dx%dx%d  ranks %dx%d  threads %d  dt %g  rounds %d x (setup + %d warm steps + restart)  measured %.1fs  max CFL %.3f",
		sp.workload, sp.nx, sp.ny, sp.nz, sp.pa, sp.pb, sp.threads, sp.dt, o.rounds, sp.warm, o.measured.Seconds(), o.maxCFL)
}

// writeSpans stores the traced pass's spans under benchmark/out.
func writeSpans(o runOpts, rep *report, rec *spanRecorder) error {
	path, err := rec.write(filepath.Join(o.root, outDir))
	if err != nil {
		return err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(rec.spans), path))
	return nil
}

// phaseMetric names the metric of each program-made phase.
var phaseMetric = [telemetry.NumPhases]string{
	telemetry.PhaseNonlinear:    "core.phase.nonlinear_ms",
	telemetry.PhaseFFTForward:   "core.phase.fft_forward_ms",
	telemetry.PhaseFFTInverse:   "core.phase.fft_inverse_ms",
	telemetry.PhaseTransposeAB:  "core.phase.transpose_ab_ms",
	telemetry.PhaseViscousSolve: "core.phase.viscous_solve_ms",
	telemetry.PhasePressure:     "core.phase.pressure_ms",
	telemetry.PhaseCollective:   "core.phase.collective_ms",
	telemetry.PhaseCheckpoint:   "core.phase.checkpoint_ms",
}

// tracedSolverMetrics fills the per-layer metrics a traced solver pass
// yields: span self times, the step's companions, the observers' price,
// the program-made phase seconds, the schedule's exact denominators, the
// wire counters and the layer microbenchmarks. hostMetrics must have run.
func tracedSolverMetrics(m map[string]float64, sp solverSpec, out *solverOut) error {
	spanMetrics(m, out.rec)
	stepMetrics(m, out.stepsBy[variant{}], float64(sp.nx*sp.ny*sp.nz*sp.fields))
	overheadMetrics(m, out.stepsBy)
	if one := out.stepsBy[variant{threads: 1}]; len(one) > 0 {
		m["par.speedup_t2"] = median(normMS(one)) / median(normMS(out.stepsBy[variant{}]))
	}
	m["core.allocs_per_step"] = out.allocsPerStep
	m["core.alloc_bytes_per_step"] = out.allocBytesPer
	m["core.heap_mb"] = out.heapMB
	m["trace.events_per_step"] = out.traceEvents
	// Program-made phase seconds, rescaled by the same ratio that turns
	// the raw step into the normalised one so they add up against step_ms.
	if tel := out.stepsBy[variant{spans: true, telemetry: true}]; out.phaseSteps > 0 && len(tel) > 0 {
		scale := median(normMS(tel)) / median(rawMS(tel))
		for p, name := range phaseMetric {
			m[name] = out.phaseSec[p] / float64(out.phaseSteps) * 1e3 * scale
		}
	}
	sched, err := core.WorkloadSchedule(sp.config(nil, nil, nil))
	if err != nil {
		return err
	}
	m["schedule.flops_per_step"] = sched.TotalFlops()
	var modelWire float64
	for _, op := range sched.Ops {
		if (op.Kind == schedule.OpTranspose || op.Kind == schedule.OpOverlap) && op.CommSize > 1 {
			// Per rank: one block to each of the CommSize-1 remote peers.
			modelWire += op.BytesPerRank / float64(op.CommSize) * float64(op.CommSize-1)
		}
	}
	m["schedule.comm_bytes_per_step"] = modelWire
	if w := out.wire; w.steps > 0 {
		n := float64(w.steps)
		m["mpi.bootstrap_ms"] = out.bootstrap.Seconds() * 1e3 * out.ruler.scale()
		m["mpi.wire_bytes_per_step"] = w.payload / n
		m["mpi.wire_frames_per_step"] = w.frames / n
		m["mpi.wire_overhead_frac"] = (w.bytes - w.payload) / w.payload
		m["mpi.serialize_frac"] = w.serializeSec / w.wallSec
		m["schedule.wire_over_model"] = w.payload / n / modelWire
	}
	if out.ckptBytes > 0 {
		m["ckpt.bytes"] = out.ckptBytes
		if w := m["ckpt.write_ms"]; w > 0 {
			m["ckpt.write_mb_per_s"] = out.ckptBytes / 1e6 / (w / 1e3)
		}
		if r := m["ckpt.restore_ms"]; r > 0 {
			m["ckpt.restore_mb_per_s"] = out.ckptBytes / 1e6 / (r / 1e3)
		}
	}
	for k, v := range out.layer {
		m[k] = v
	}
	for _, l := range append([]string{"runtime", "other"}, profiledLayers...) {
		m["cpu."+l+"_frac"] = out.cpuShares[l]
	}
	localLayers(m, sp, usesBanded(out.cpuShares))
	return nil
}

// endToEnd fills the five end-to-end metrics from normalised samples and
// notes the raw medians next to them.
func endToEnd(rep *report, setup, steps, restart []sample, rss *rssPeaks) {
	m := rep.metrics
	m["setup_s"] = median(normMS(setup)) / 1e3
	m["step_ms"] = median(normMS(steps))
	m["cpu_ms_per_step"] = median(normCPUMS(steps))
	m["restart_s"] = median(normMS(restart)) / 1e3
	m["peak_rss_mb"] = rss.value()
	tv, tp := tail(normMS(steps))
	rep.notes = append(rep.notes,
		fmt.Sprintf("samples: setup %d  step %d  restart %d", len(setup), len(steps), len(restart)),
		fmt.Sprintf("raw medians: setup %.4f s  step %.3f ms  restart %.4f s  (normalised: %.4f s  %.3f ms  %.4f s; RefMS %.2f)",
			median(rawMS(setup))/1e3, median(rawMS(steps)), median(rawMS(restart))/1e3,
			m["setup_s"], m["step_ms"], m["restart_s"], RefMS),
		fmt.Sprintf("step tail: p%.1f = %.3f ms over %d samples", tp, tv, len(steps)),
		fmt.Sprintf("peak RSS per round (reset between rounds: %v): %.1f MB", rss.resettable, rss.mb))
}

// hostMetrics qualifies the run: the ruler's own readings and the host
// probes.
func hostMetrics(m map[string]float64, rl *ruler, measured time.Duration, smoke bool) {
	m["host.ref_unit_ms"] = median(rl.wallMS)
	m["host.ref_spread"] = rl.spread()
	m["bench.ref_time_frac"] = rl.total / measured.Seconds()
	reps := 3
	if smoke {
		reps = 1
	}
	m["host.triad_gbps"] = triadGBps(reps)
	m["host.triad_array_bytes"] = triadArrayBytes
	m["host.fma_gflops"] = fmaGFlops()
	m["host.llc_bytes"] = llcBytes()
}

// spanMetrics turns the recorder's self times into the per-call metrics.
func spanMetrics(m map[string]float64, rec *spanRecorder) {
	self := rec.selfMS()
	for span, metric := range map[string]string{
		"core.construct": "core.construct_ms", "core.init": "core.init_ms",
		"core.first_step": "core.first_step_ms", "core.status_line": "core.status_line_ms",
		"core.cfl": "core.cfl_ms", "ckpt.write": "ckpt.write_ms", "ckpt.restore": "ckpt.restore_ms",
		"ckpt.verify":   "ckpt.verify_ms",
		"server.submit": "server.submit_ms", "server.pause": "server.pause_ms",
		"server.resume": "server.resume_to_step_ms",
	} {
		if xs := self[span]; len(xs) > 0 {
			m[metric] = median(xs)
		}
	}
}

// stepMetrics are the unbounded companions of step_ms.
func stepMetrics(m map[string]float64, steps []sample, dof float64) {
	if len(steps) == 0 {
		return
	}
	norm := normMS(steps)
	m["core.step_ms_raw_p50"] = median(rawMS(steps))
	m["core.step_ms_tail"], m["core.step_ms_tail_pct"] = tail(norm)
	m["core.mdof_per_s"] = dof / 1e6 / (median(norm) / 1e3)
}

// overheadMetrics price the observers: each variant's step against the
// variant without it.
func overheadMetrics(m map[string]float64, by map[variant][]sample) {
	ratio := func(with, without variant) (float64, bool) {
		a, b := by[with], by[without]
		if len(a) == 0 || len(b) == 0 {
			return 0, false
		}
		return median(normMS(a))/median(normMS(b)) - 1, true
	}
	spans := variant{spans: true}
	tel := variant{spans: true, telemetry: true}
	trc := variant{spans: true, telemetry: true, trace: true}
	if v, ok := ratio(spans, variant{}); ok {
		m["bench.span_overhead_frac"] = v
	}
	if v, ok := ratio(tel, spans); ok {
		m["telemetry.overhead_frac"] = v
	}
	if v, ok := ratio(trc, tel); ok {
		m["trace.overhead_frac"] = v
	}
}
