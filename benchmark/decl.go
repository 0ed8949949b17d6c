package main

// The benchmark's declarations: workloads and metrics, in the order
// BENCHMARK.json lists them. TestManifestMatchesDeclarations keeps the two
// in step; later issues cite these names.

type workloadDecl struct {
	Name string
	Why  string
}

type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening and A/A limit
}

const (
	wlChannel   = "channel-serial-48"
	wlIsotropic = "isotropic-threads2-48"
	wlScalar    = "scalar-tcp2-32"
	wlServe     = "serve-jobs-16"
)

var workloadDecls = []workloadDecl{
	{wlChannel, "the paper's problem as the plain single-threaded baseline: 25 MB of fields against a 4 MiB L2, so banded, bspline, fft, pencil reorders and pointwise products all do real work"},
	{wlIsotropic, "same fft/pencil substrate with no banded/bspline and a diagonal viscous solve, on a 2-thread pool: a banded change must leave it flat, an FFT or pool change moves it most"},
	{wlScalar, "1x2 ranks over real loopback sockets with four transported cache-resident fields: wire, serialisation and transpose exchange peak while kernel time is smallest"},
	{wlServe, "back-to-back small jobs over real HTTP with SSE, pause and resume: per-job fixed costs of server, ckpt write and restore, hub and telemetry are a visible share"},
}

var endToEndDecls = []metricDecl{
	{"setup_s", "s", "lower", 0.15},
	{"step_ms", "ms", "lower", 0.10},
	{"cpu_ms_per_step", "ms", "lower", 0.10},
	{"restart_s", "s", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.05},
}

// Per-layer metrics. A metric whose layer the workload does not use is
// emitted as 0 (the contract wants every name on every workload); the
// README's arrow table says which end-to-end metric each should move.
var perLayerDecls = []metricDecl{
	// Qualifiers of the run itself.
	{Name: "host.ref_unit_ms", Unit: "ms", Better: "lower"},
	{Name: "host.ref_spread", Unit: "ratio", Better: "lower"},
	{Name: "host.triad_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "host.fma_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "host.llc_bytes", Unit: "B", Better: "higher"},
	{Name: "host.triad_array_bytes", Unit: "B", Better: "higher"},
	{Name: "bench.ref_time_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_overhead_frac", Unit: "ratio", Better: "lower"},
	// Busy share per layer, sampled by the CPU profiler during the rounds.
	{Name: "cpu.core_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.fft_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.banded_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.bspline_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.pencil_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.mpi_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.par_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.ckpt_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.server_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.telemetry_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.trace_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.runtime_frac", Unit: "ratio", Better: "lower"},
	{Name: "cpu.other_frac", Unit: "ratio", Better: "lower"},
	// fft
	{Name: "fft.complex_line_ns", Unit: "ns", Better: "lower"},
	{Name: "fft.real_line_ns", Unit: "ns", Better: "lower"},
	{Name: "fft.padded_real_inv_ns", Unit: "ns", Better: "lower"},
	{Name: "fft.padded_real_fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "fft.padded_complex_inv_ns", Unit: "ns", Better: "lower"},
	{Name: "fft.padded_complex_fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "fft.gflops", Unit: "GF/s", Better: "higher"},
	{Name: "fft.roofline_frac", Unit: "ratio", Better: "higher"},
	// banded, bspline
	{Name: "banded.solve_complex_ns", Unit: "ns", Better: "lower"},
	{Name: "banded.solve_vs_general", Unit: "ratio", Better: "lower"},
	{Name: "banded.bytes_per_solve", Unit: "B", Better: "lower"},
	{Name: "banded.factor_us", Unit: "us", Better: "lower"},
	{Name: "bspline.collocation_build_us", Unit: "us", Better: "lower"},
	{Name: "bspline.eval_derivs_ns", Unit: "ns", Better: "lower"},
	// pencil, parfft
	{Name: "pencil.ytoz_us", Unit: "us", Better: "lower"},
	{Name: "pencil.ztoy_us", Unit: "us", Better: "lower"},
	{Name: "pencil.ztox_us", Unit: "us", Better: "lower"},
	{Name: "pencil.xtoz_us", Unit: "us", Better: "lower"},
	{Name: "pencil.ytoz_pipelined_us", Unit: "us", Better: "lower"},
	{Name: "pencil.reorder_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "pencil.allocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "parfft.cycle_us", Unit: "us", Better: "lower"},
	{Name: "parfft.cycle_baseline_us", Unit: "us", Better: "lower"},
	{Name: "parfft.transpose_frac", Unit: "ratio", Better: "lower"},
	// mpi
	{Name: "mpi.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.alltoallv_us", Unit: "us", Better: "lower"},
	{Name: "mpi.stream_exchange_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "mpi.wire_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "mpi.wire_frames_per_step", Unit: "count", Better: "lower"},
	{Name: "mpi.wire_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "mpi.serialize_frac", Unit: "ratio", Better: "lower"},
	// par
	{Name: "par.for_overhead_ns.w1", Unit: "ns", Better: "lower"},
	{Name: "par.for_overhead_ns.w2", Unit: "ns", Better: "lower"},
	{Name: "par.speedup_t2", Unit: "ratio", Better: "higher"},
	// core
	{Name: "core.construct_ms", Unit: "ms", Better: "lower"},
	{Name: "core.init_ms", Unit: "ms", Better: "lower"},
	{Name: "core.first_step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_ms_raw_p50", Unit: "ms", Better: "lower"},
	{Name: "core.step_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "core.step_ms_tail_pct", Unit: "%", Better: "higher"},
	{Name: "core.mdof_per_s", Unit: "Mdof/s", Better: "higher"},
	{Name: "core.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "core.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "core.status_line_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cfl_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.nonlinear_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.fft_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.fft_inverse_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.transpose_ab_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.viscous_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.pressure_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.collective_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.checkpoint_ms", Unit: "ms", Better: "lower"},
	// schedule (exact denominators)
	{Name: "schedule.flops_per_step", Unit: "flop", Better: "lower"},
	{Name: "schedule.comm_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "schedule.wire_over_model", Unit: "ratio", Better: "lower"},
	// ckpt
	{Name: "ckpt.write_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.restore_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},
	// server
	{Name: "server.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_to_start_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_first_event_ms", Unit: "ms", Better: "lower"},
	{Name: "server.pause_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resume_to_step_ms", Unit: "ms", Better: "lower"},
	{Name: "server.events_per_step", Unit: "count", Better: "lower"},
	{Name: "server.watcher_drops", Unit: "count", Better: "lower"},
	{Name: "server.report_ms", Unit: "ms", Better: "lower"},
	{Name: "server.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_frac", Unit: "ratio", Better: "lower"},
	// observability price
	{Name: "telemetry.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.events_per_step", Unit: "count", Better: "lower"},
}
