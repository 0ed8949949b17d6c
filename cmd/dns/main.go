// Command dns runs a direct numerical simulation from the command line:
// pick a registered workload (turbulent channel flow by default, isotropic
// turbulence, passive scalar), configure the grid, Reynolds number and
// process layout, run time steps, and emit statistics profiles (the
// Figure 5/6 pipeline, channel-based workloads only): the Reynolds stresses
// and the mean velocity in wall units beside the Reichardt law of the wall.
// The run flags are fields of a server.JobSpec, the job description
// cmd/dnsserve takes, and share its defaults; -steps and the cadences keep
// their own.
//
// Examples:
//
//	dns -nx 32 -ny 49 -nz 32 -retau 180 -dt 2e-3 -steps 200 -stats-every 20
//	dns -workload isotropic -nx 32 -ny 32 -nz 32 -retau 100 -steps 50
//	dns -workload scalar -prandtl 0.7 -nx 32 -ny 49 -nz 32 -steps 200
//
// By default all ranks run as goroutines in this process (-transport=chan).
// With -transport=tcp the process is a single rank of a distributed world
// and needs -rank/-world/-coord; cmd/dnsrun spawns and wires such worlds:
//
//	dnsrun -n 4 -- -nx 32 -ny 49 -nz 32 -pa 2 -pb 2 -steps 200
//
// For a long-running service that queues many runs, checkpoints them
// durably, streams live telemetry, and survives crashes, see cmd/dnsserve.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/run"
	"channeldns/internal/server"
	"channeldns/internal/stats"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

func main() {
	// The run flags bind to a server.JobSpec and take their defaults from
	// its one default table; Config and ConfigMap resolve what is left zero.
	// Perturb, Seed, StatusEvery, CkptEvery and CkptKeep go to the run
	// driver as given: zero means laminar, seed 0, no statistics, the final
	// checkpoint only and keep every checkpoint, and -steps counts from
	// wherever the run starts.
	var sp server.JobSpec
	def := server.Defaults()
	flag.IntVar(&sp.Nx, "nx", 32, "Fourier modes in x (even)")
	flag.IntVar(&sp.Ny, "ny", 65, "B-spline basis size in y")
	flag.IntVar(&sp.Nz, "nz", 32, "Fourier modes in z (even)")
	flag.Float64Var(&sp.ReTau, "retau", def.ReTau, "friction Reynolds number")
	flag.Float64Var(&sp.Dt, "dt", def.Dt, "time step")
	flag.IntVar(&sp.Steps, "steps", 100, "number of time steps")
	flag.IntVar(&sp.PA, "pa", def.PA, "process grid CommA size")
	flag.IntVar(&sp.PB, "pb", def.PB, "process grid CommB size")
	flag.IntVar(&sp.Threads, "threads", def.Threads, "worker threads per rank")
	flag.Float64Var(&sp.Perturb, "perturb", def.Perturb, "initial perturbation amplitude")
	flag.Int64Var(&sp.Seed, "seed", def.Seed, "perturbation seed")
	flag.StringVar(&sp.Workload, "workload", def.Workload, "workload to run: "+strings.Join(core.WorkloadNames(), " | "))
	flag.Float64Var(&sp.Ly, "ly", 0, "y extent of the isotropic workload's periodic box (0 = 2*pi)")
	flag.Float64Var(&sp.Prandtl, "prandtl", 0, "Prandtl number of the scalar workload (0 = 1)")
	flag.IntVar(&sp.StatusEvery, "stats-every", 10, "accumulate statistics every N steps (0 = off)")
	flag.IntVar(&sp.CkptEvery, "ckpt-every", 0, "checkpoint into -ckpt-dir every N steps (0 = final checkpoint only)")
	flag.IntVar(&sp.CkptKeep, "ckpt-keep", def.CkptKeep, "rolling retention: keep the newest K checkpoints (0 = keep all)")
	flag.StringVar(&sp.Form, "form", def.Form, "nonlinear form: divergence | convective | skew")
	var (
		out     = flag.String("out", "", "write final averaged profiles to this file")
		planes  = flag.String("plane", "", "after the last step, write figure7_u.png (u at mid-height) and figure8_omegaz.png (omega_z nearest y+ = 10) to this directory (one rank, channel-based workloads)")
		ckptDir = flag.String("ckpt-dir", "", "checkpoint store directory: sharded, atomically published restart snapshots (any rank count)")
		resume  = flag.Bool("resume", false, "auto-resume from the newest valid checkpoint in -ckpt-dir, falling back past corrupt ones")
		budget  = flag.Bool("budget", false, "print the TKE budget at the end")
		spectra = flag.Bool("spectra", false, "print 1-D energy spectra at selected heights")
		listen  = flag.String("listen", "", "serve live telemetry + pprof on this address (e.g. localhost:6060)")
		hbEvery = flag.Int("heartbeat-every", 0, "fold every rank's telemetry into rank 0 every N steps for its live /telemetry report and /metrics + /status world dashboard (0 = off; a collective, so every rank must run the same value)")
		repPath = flag.String("report", "", "write the final telemetry report (BENCH-schema JSON) to this file")
		trcPath = flag.String("trace", "", "record a flight-recorder trace and write it as Chrome trace-event JSON (open in Perfetto) to this file")
		trcCap  = flag.Int("trace-cap", 0, "per-rank trace ring capacity in events (0 = default)")

		transportF = flag.String("transport", "chan", "rank transport: chan (goroutine ranks in this process) | tcp (this process is one rank of a distributed world; see cmd/dnsrun)")
		rankF      = flag.Int("rank", 0, "with -transport=tcp: this process's world rank")
		worldF     = flag.Int("world", 0, "with -transport=tcp: world size (must equal pa*pb)")
		coordF     = flag.String("coord", "", "with -transport=tcp: rank-0 rendezvous address host:port")
		bindF      = flag.String("bind", "", "with -transport=tcp: peer listener bind address (default 127.0.0.1:0; bind a reachable interface for multi-machine runs)")
		advertF    = flag.String("advertise", "", "with -transport=tcp: host other ranks dial for this rank's peer listener (when -bind is a wildcard)")
	)
	flag.Parse()

	if err := sp.Validate(); err != nil {
		log.Fatalf("dns: %v", err)
	}
	if *planes != "" && sp.World() > 1 {
		log.Fatalf("dns: -plane renders on one rank; the process grid is %dx%d", sp.PA, sp.PB)
	}
	var reg *telemetry.Registry
	if *listen != "" || *repPath != "" || *trcPath != "" || *hbEvery > 0 {
		reg = telemetry.NewRegistry()
	}
	var trc *trace.Trace
	if *trcPath != "" || *listen != "" {
		trc = trace.New(*trcCap)
	}
	cfg := sp.Config(par.NewPool(sp.Workers()), reg, trc)
	buildReport := func() *telemetry.Report {
		config := sp.ConfigMap()
		config["transport"] = *transportF
		if *transportF == "tcp" {
			// One process = one rank of a world; stamp which, so a scraped
			// /telemetry payload is identifiable.
			config["rank"] = fmt.Sprint(*rankF)
			config["world"] = fmt.Sprint(*worldF)
		}
		return run.Report("dns", cfg, config)
	}
	// Rank 0 learns the world through one fold into its own registry and
	// trace, at heartbeat cadence and after the last step. The world
	// tracker lives on every rank (so /metrics and /status always answer)
	// but only rank 0's folds ever feed it; other ranks' dashboards stay
	// empty and their index page says where to look.
	fold := run.Fold{Reg: reg, Trace: trc}
	if *listen != "" {
		fold.Tracker = telemetry.NewWorldTracker(sp.World(), reg)
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.HandlerWithIdentity(buildReport, telemetry.Identity{
			Rank: *rankF, World: *worldF, Transport: *transportF,
		}))
		mux.Handle("/trace", trace.Handler(trc))
		mux.Handle("/metrics", telemetry.MetricsHandler(fold.Tracker))
		mux.Handle("/status", telemetry.StatusHandler(fold.Tracker))
		addr, err := telemetry.ServeHandler(*listen, mux)
		if err != nil {
			log.Fatalf("telemetry endpoint: %v", err)
		}
		fmt.Printf("telemetry endpoint: http://%s/telemetry (world dashboard under /metrics + /status, trace under /trace, pprof under /debug/pprof/)\n", addr)
	}
	isTCP := false
	switch *transportF {
	case "chan":
	case "tcp":
		isTCP = true
		if *worldF != sp.World() {
			log.Fatalf("dns: -transport=tcp world %d does not match process grid %dx%d", *worldF, cfg.PA, cfg.PB)
		}
		if *coordF == "" {
			log.Fatal("dns: -transport=tcp needs -coord (cmd/dnsrun supplies it)")
		}
	default:
		log.Fatalf("dns: unknown -transport %q (chan | tcp)", *transportF)
	}

	var finalErr error
	body := func(c *mpi.Comm) {
		// Align this process's clock against rank 0 before any timed work,
		// so the trace dump carries the offset that places this rank's
		// events on rank 0's timeline. In-process ranks share one clock and
		// need none of this.
		if isTCP && trc != nil && c.Size() > 1 {
			cs := mpi.SyncClocks(c, 8)
			trc.SetClockSync(cs.OffsetNs, cs.ErrorNs)
		}
		// Failures below are collective (every rank sees the same error) or
		// the root's alone; rank 0 records the first for the exit path.
		fail := func(err error) {
			if err != nil && c.Rank() == 0 && finalErr == nil {
				finalErr = err
			}
		}
		// heartbeat folds the world into rank 0 mid-run. A collective:
		// every rank calls it at the same step.
		heartbeat := func() {
			fail(fold.Gather(c, false))
			// Clocks drift; refresh the trace alignment at heartbeat cadence.
			if isTCP && trc != nil && c.Size() > 1 {
				cs := mpi.SyncClocks(c, 4)
				trc.SetClockSync(cs.OffsetNs, cs.ErrorNs)
			}
		}
		wl, err := core.NewWorkload(c, cfg)
		if err != nil {
			fail(err)
			return
		}
		// Channel-based workloads expose the underlying channel solver; the
		// statistics pipeline (profiles, budget, spectra) runs on it. Other
		// workloads report through their own StatusLine only.
		var s *core.Solver
		if cs, ok := wl.(core.ChannelFlow); ok {
			s = cs.ChannelSolver()
		}
		if *planes != "" && s == nil {
			fail(fmt.Errorf("dns: -plane needs a channel-based workload, not %s", sp.Workload))
			return
		}
		acc := &stats.Accumulator{}
		d := &run.Driver{
			WL: wl, TargetCFL: 0.8, CkptEvery: sp.CkptEvery, StatusEvery: sp.StatusEvery,
			Checkpointed: func(name string) {
				if c.Rank() == 0 {
					fmt.Printf("checkpoint %s written (step %d)\n", name, wl.CurrentStep())
				}
			},
			Status: func(line string) {
				if s != nil {
					acc.Add(stats.Snapshot(s))
				}
				if c.Rank() == 0 {
					fmt.Println(line)
				}
			},
		}
		if *ckptDir != "" {
			d.Store = wl.NewCheckpointStore(*ckptDir, sp.CkptKeep)
		}
		if *hbEvery > 0 {
			d.AfterStep = func() {
				if wl.CurrentStep()%*hbEvery == 0 {
					heartbeat()
				}
			}
		}
		name, err := d.Start(*resume, sp.Perturb, sp.Seed)
		if err != nil {
			fail(err)
			return
		}
		if c.Rank() == 0 {
			switch {
			case name != "":
				fmt.Printf("resumed from %s (step %d, t=%.6g, dt=%.6g)\n",
					name, wl.CurrentStep(), wl.CurrentTime(), wl.CurrentDt())
			case *resume && d.Store != nil:
				fmt.Printf("no checkpoint in %s; starting fresh\n", *ckptDir)
			}
		}
		// StatusLine is a collective: every rank must call it.
		if line := wl.StatusLine(); c.Rank() == 0 {
			fmt.Println(line)
		}
		// -steps counts from wherever the run starts: a resumed run takes
		// that many more steps.
		if _, err := d.RunTo(wl.CurrentStep() + sp.Steps); err != nil {
			fail(err)
			return
		}
		if *planes != "" {
			// Figures 7 and 8 of the paper: u at mid-height, omega_z nearest
			// y+ = 10, from the last step's state.
			for _, f := range []struct {
				name string
				comp core.PhysicalComponent
				yi   int
			}{
				{"figure7_u.png", core.CompU, sp.Ny / 2},
				{"figure8_omegaz.png", core.CompOmegaZ, server.NearWallIndex(s.CollocationPoints(), cfg.ReTau)},
			} {
				path := filepath.Join(*planes, f.name)
				png, frame, err := server.RenderPlane(s, f.comp, f.yi, wl.CurrentStep())
				if err == nil {
					err = os.WriteFile(path, png, 0o644)
				}
				if err != nil {
					fail(fmt.Errorf("dns: -plane: %w", err))
					return
				}
				fmt.Printf("wrote %s (%s at y = %.4f, step %d)\n", path, frame.Comp, s.CollocationPoints()[f.yi], frame.Step)
			}
		}
		var bud stats.Budget
		var spx, spz stats.Spectra1D
		if s != nil {
			if acc.Count() == 0 {
				acc.Add(stats.Snapshot(s))
			}
			if *budget {
				bud = stats.TKEBudget(s)
			}
			if *spectra {
				stations := []int{sp.Ny / 8, sp.Ny / 4, sp.Ny / 2}
				spx = stats.SpectraX(s, stations)
				spz = stats.SpectraZ(s, stations)
			}
		}
		if s != nil && c.Rank() == 0 {
			p := acc.Mean()
			fmt.Printf("\nAveraged profiles over %d snapshots:\n", acc.Count())
			if err := p.Write(os.Stdout); err != nil {
				finalErr = err
				return
			}
			yp, up, uTau := p.WallUnits(s.Nu())
			fmt.Printf("\nu_tau = %.4f\n", uTau)
			fmt.Printf("%-10s %-10s %s\n", "y+", "U+", "Reichardt")
			for i := range yp {
				fmt.Printf("%-10.3f %-10.4f %.4f\n", yp[i], up[i], stats.ReichardtProfile(yp[i]))
			}
			if k, b, ok := stats.LogLawFit(yp, up, 30, 0.3*cfg.ReTau); ok {
				fmt.Printf("log-law fit over 30 < y+ < %.0f: kappa = %.3f, B = %.2f\n", 0.3*cfg.ReTau, k, b)
			}
			if *budget {
				fmt.Println("\nTKE budget (spectrally exact terms):")
				if err := bud.Write(os.Stdout); err != nil {
					finalErr = err
					return
				}
			}
			if *spectra {
				fmt.Println("\nstreamwise spectra E_uu(kx) at y stations:")
				for si, yi := range spx.YIndex {
					fmt.Printf("y=%.3f:", s.CollocationPoints()[yi])
					for b := range spx.Euu[si] {
						fmt.Printf(" %.3e", spx.Euu[si][b])
					}
					fmt.Println()
				}
				fmt.Println("spanwise spectra E_uu(kz) at y stations:")
				for si, yi := range spz.YIndex {
					fmt.Printf("y=%.3f:", s.CollocationPoints()[yi])
					for b := range spz.Euu[si] {
						fmt.Printf(" %.3e", spz.Euu[si][b])
					}
					fmt.Println()
				}
			}
			if *out != "" {
				f, err := os.Create(*out)
				if err != nil {
					finalErr = err
					return
				}
				defer f.Close()
				if err := p.Write(f); err != nil {
					finalErr = err
				}
			}
		}
		// The last fold, after all instrumented work: rank 0's registry,
		// wire block and trace then cover the world, so its trace file,
		// straggler table and report do too, exactly as an in-process
		// run's would.
		fail(fold.Gather(c, true))
	}
	if isTCP {
		c, err := mpi.ConnectTCP(mpi.TCPConfig{
			Rank: *rankF, World: *worldF, Coord: *coordF,
			Bind: *bindF, Advertise: *advertF,
		})
		if err != nil {
			log.Fatal(err)
		}
		body(c)
		c.Close()
	} else {
		mpi.Run(sp.World(), body)
	}
	if finalErr != nil {
		log.Fatal(finalErr)
	}
	// Rank 0 holds the world's trace and telemetry; other processes of a
	// TCP world write nothing.
	if isTCP && *rankF != 0 {
		return
	}
	if *trcPath != "" {
		if err := trc.WriteChromeFile(*trcPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (open in ui.perfetto.dev or chrome://tracing)\n", *trcPath)
		fmt.Println("\nper-step critical path:")
		trace.WriteStragglerTable(os.Stdout, trace.Analyze(trc.Events()))
		if isTCP && *worldF > 1 {
			fmt.Println("clock alignment against rank 0 (cross-rank orderings tighter than the bound are noise):")
			for r := 1; r < *worldF; r++ {
				fmt.Printf("  rank %d: error bound %v\n", r, trc.Rank(r).ClockError())
			}
		}
	}
	if *repPath != "" {
		if err := buildReport().WriteFile(*repPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *repPath)
	}
}
