package main

import (
	"fmt"
	"io"

	"channeldns/internal/core"
	"channeldns/internal/machine"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	driver "channeldns/internal/run" // run is this program's entry point
	"channeldns/internal/schedule"
	"channeldns/internal/server"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// Tables 7-11 and the campaign plan: the timestep scaling studies from the
// calibrated machine model, paper values side by side, efficiencies computed
// as the paper computes them.

// modelGrids prints Tables 7 and 8 together: one configuration listing.
func modelGrids(w io.Writer) {
	t7 := newTable("Table 7: strong scaling grids", "system", "Nx", "Ny", "Nz", "DOF")
	t8 := newTable("Table 8: weak scaling grids (Nx varies with cores)", "system", "Ny", "Nz")
	for _, sys := range []string{"Mira", "Lonestar", "Stampede", "BlueWaters"} {
		nx, ny, nz := machine.Table7Grid(sys)
		t7.Row(sys, nx, ny, nz, float64(nx)*float64(ny)*float64(nz)*3)
		ny, nz = machine.Table8Fixed(sys)
		t8.Row(sys, ny, nz)
	}
	t7.Write(w)
	fmt.Fprintln(w)
	t8.Write(w)
	fmt.Fprintln(w)
}

// timestepTable prints model and paper step times with their efficiencies,
// normalized by the first (smallest-core) row of each system+mode group:
// time for weak scaling, time x cores for strong.
func timestepTable(w io.Writer, title string, rows []machine.TimestepRow, weak bool) {
	tbl := newTable(title+"  (model seconds / efficiency, paper seconds / efficiency)",
		"system", "mode", "cores", "T model", "F model", "N model", "tot model", "eff%", "tot paper", "paper eff%")
	base := map[string]machine.TimestepRow{}
	for _, r := range rows {
		k := r.System + " " + r.Mode.String()
		if _, ok := base[k]; !ok {
			base[k] = r
		}
		b0 := base[k]
		effM := b0.Model.Total() / r.Model.Total()
		effP := b0.Paper.Total() / r.Paper.Total()
		if !weak {
			effM *= float64(b0.Cores) / float64(r.Cores)
			effP *= float64(b0.Cores) / float64(r.Cores)
		}
		tbl.Row(r.System, r.Mode.String(), r.Cores, r.Model.Transpose, r.Model.FFT, r.Model.Advance, r.Model.Total(),
			100*effM, r.Paper.Total(), 100*effP)
	}
	tbl.Write(w)
	fmt.Fprintln(w)
}

func model11(w io.Writer) {
	tbl := newTable("Table 11: MPI vs Hybrid on Mira (total step seconds)",
		"scaling", "cores", "MPI model", "Hybrid model", "ratio", "MPI paper", "Hybrid paper", "paper ratio")
	for _, r := range machine.Table11() {
		if r.ModelRatio == 0 {
			continue
		}
		kind := "strong"
		if r.Weak {
			kind = "weak"
		}
		tbl.Row(kind, r.Cores, r.ModelMPI, r.ModelHybrid, r.ModelRatio, r.PaperMPI, r.PaperHybrid, r.PaperRatio)
	}
	tbl.Write(w)
	fmt.Fprintln(w)
}

// spec describes the -json and -schedule runs as dns and dnsserve describe
// theirs; what it leaves zero takes the job defaults.
func (b *bench) spec() server.JobSpec {
	return server.JobSpec{Workload: b.workload, Nx: b.nx, Ny: b.ny, Nz: b.nz, Steps: b.steps,
		Dt: 1e-3}
}

// config is the core configuration of the -json and -schedule runs.
func (b *bench) config() core.Config { return b.spec().Config(nil, nil, nil) }

func timestepSchedule(b *bench) error {
	sched, err := core.WorkloadSchedule(b.config())
	if err != nil {
		return err
	}
	sched.Write(b.out)
	return nil
}

// stepper is the cycle of a timestep run: the workload built from cfg (which
// the caller validated, so failure is a bug) on its default initial
// condition, warm steps before the clock starts to fill the operator cache
// and workspace arena, then one step a call.
func stepper(cfg core.Config, warm int) cycleBuilder {
	return func(c *mpi.Comm, _ *telemetry.Collector) (func(int), *schedule.Schedule) {
		wl, err := core.NewWorkload(c, cfg)
		if err != nil {
			panic(err)
		}
		def := server.Defaults()
		wl.InitDefault(def.Perturb, def.Seed)
		return func(it int) {
			if it < 0 {
				core.Advance(wl, warm)
			} else {
				wl.StepOnce()
			}
		}, nil
	}
}

// timestepLive is Table 9 measured here. -live times full RK3 steps of the
// DNS on three rank x thread layouts. -json runs the serial instrumented
// benchmark, the live analog of one Table 9 row: the phases are the leaf
// regions inside the step, so phase_seconds_sum tracks wall_seconds to within
// the repo's 10% bound, and allocs_per_step restates the steady-state
// allocation count the core alloc budget bounds.
func timestepLive(b *bench) error {
	if err := b.config().Validate(); err != nil {
		return err
	}
	if b.live {
		fmt.Fprintf(b.out, "Live in-process full RK3 timesteps (32x33x32, ReTau=%g):\n", server.Defaults().ReTau)
		tbl := newTable("", "ranks", "grid", "threads", "sec/step")
		for _, l := range []struct{ pa, pb, th int }{{1, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
			const n = 3
			res := newLive()
			sp := server.JobSpec{Nx: 32, Ny: 33, Nz: 32, Dt: 1e-3, PA: l.pa, PB: l.pb}
			res.time(mpi.Run, l.pa*l.pb, n, stepper(sp.Config(par.NewPool(l.th), nil, nil), 1))
			tbl.Row(l.pa*l.pb, fmt.Sprintf("%dx%d", l.pa, l.pb), l.th, (res.elapsed / n).Seconds())
		}
		tbl.Write(b.out)
	}
	if b.jsonPath == "" {
		return nil
	}
	res := newLive()
	var trc *trace.Trace
	if b.tracePath != "" {
		trc = trace.New(0)
	}
	cfg := b.config()
	cfg.Telemetry, cfg.Trace = res.reg, trc
	res.time(mpi.Run, 1, b.steps, stepper(cfg, 2))
	// The run is in process, and table 9's reports have never named a
	// transport.
	config := b.spec().ConfigMap()
	delete(config, "transport")
	rep := driver.Report("table9", cfg, config)
	rep.AllocsPerStep = float64(res.allocs) / float64(b.steps)
	if err := b.writeReport(rep, ""); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "  %d steps, %.4fs/step, phase sum %.4fs\n",
		b.steps, rep.WallSeconds/float64(b.steps), rep.PhaseSecondsSum/float64(b.steps))
	if trc != nil {
		if err := trc.WriteChromeFile(b.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(b.out, "wrote %s\n", b.tracePath)
	}
	return nil
}

// campaign drives the machine model the way a production plan would: the
// ReTau = 5200 run's 10240 x 1536 x 7680 modes on Mira, swept over core
// counts, with where the transpose, FFT and time-advance budgets go.
func campaign(w io.Writer) {
	nx, ny, nz := 10240, 1536, 7680
	m := machine.Mira
	fmt.Fprintf(w, "Planning the ReTau=5200 production run (%d x %d x %d, %.0fG DOF) on %s\n\n",
		nx, ny, nz, 3*float64(nx)*float64(ny)*float64(nz)/1e9, m.Name)
	tbl := newTable("Projected cost per RK3 step (hybrid mode)",
		"cores", schedule.PhaseTransposeAB.String(), "FFT", "N-S advance", "total", "core-hours/step")
	for _, cores := range []int{131072, 262144, 524288, 786432} {
		b := machine.TimestepTime(m, machine.ModeHybrid, nx, ny, nz, cores)
		tbl.Row(cores, b.Transpose, b.FFT, b.Advance, b.Total(), b.Total()*float64(cores)/3600)
	}
	tbl.Write(w)

	// The paper's run: 650,000 steps at 524,288 cores, in hybrid mode.
	hybrid := machine.TimestepTime(m, machine.ModeHybrid, nx, ny, nz, 524288)
	fmt.Fprintf(w, "\nfull campaign at 524288 cores: %.0f million core-hours (paper: ~260M)\n",
		hybrid.Total()*650000*524288/3600/1e6)
	perCore := machine.TimestepTime(m, machine.ModeMPI, nx, ny, nz, 524288)
	fmt.Fprintf(w, "MPI-per-core would cost %.1fs/step vs hybrid %.1fs/step (ratio %.2f)\n",
		perCore.Total(), hybrid.Total(), perCore.Total()/hybrid.Total())

	// The paper's §5.3 flop accounting on the strong-scaling benchmark.
	sx, sy, sz := machine.Table7Grid("Mira")
	rep := machine.AggregateFlops(m, machine.ModeMPI, sx, sy, sz, 786432)
	fmt.Fprintf(w, "\n48-rack benchmark: sustained %.0f TFlops (%.1f%% of peak; paper 271, 2.7%%),\n"+
		"on-node %.0f TFlops (%.1f%% of peak; paper ~906, 9.0%%)\n",
		rep.Sustained/1e12, 100*rep.SustainedFrac, rep.OnNode/1e12, 100*rep.OnNodeFrac)
}
