package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// solverSpec is one of the three workloads that drive core directly.
type solverSpec struct {
	name       string
	workload   string // core registry name
	nx, ny, nz int
	pa, pb     int
	threads    int  // 0 = no pool (plain single-threaded)
	tcp        bool // ranks as goroutines over mpi.RunTCP
	dt         float64
	warm       int  // bracketed warm steps per round
	fields     int  // transported fields, for Mdof/s
	smoke      bool // the -quick size: token microbenchmarks
}

// Fixed dt keeps every run's work identical and CFL below 0.5 for the
// whole run at the default perturbation; the other solver knobs (Overlap,
// PipelineChunks, Degree, ...) stay at the program's defaults so a change
// of default is measured.
const perturbAmp = 0.3

var solverSpecs = map[string]solverSpec{
	wlChannel: {name: wlChannel, workload: core.WorkloadChannel, nx: 48, ny: 49, nz: 48,
		pa: 1, pb: 1, dt: 2e-4, warm: 4, fields: 3},
	wlIsotropic: {name: wlIsotropic, workload: core.WorkloadIsotropic, nx: 48, ny: 48, nz: 48,
		pa: 1, pb: 1, threads: 2, dt: 5e-4, warm: 8, fields: 3},
	wlScalar: {name: wlScalar, workload: core.WorkloadScalar, nx: 32, ny: 33, nz: 32,
		pa: 1, pb: 2, tcp: true, dt: 2e-4, warm: 12, fields: 4},
}

// quick shrinks a spec to the smoke-test size.
func (sp solverSpec) quick() solverSpec {
	sp.nx, sp.nz, sp.ny = 16, 16, 17
	if sp.workload == core.WorkloadIsotropic {
		sp.ny = 16
	}
	sp.warm, sp.smoke = 6, true
	return sp
}

func (sp solverSpec) ranks() int { return sp.pa * sp.pb }

func (sp solverSpec) config(pool *par.Pool, reg *telemetry.Registry, trc *trace.Trace) core.Config {
	return core.Config{Workload: sp.workload, Nx: sp.nx, Ny: sp.ny, Nz: sp.nz,
		ReTau: 180, Dt: sp.dt, Forcing: 1, PA: sp.pa, PB: sp.pb,
		Pool: pool, Telemetry: reg, Trace: trc}
}

// variant selects what a round attaches; the untraced pass runs the zero
// variant only.
type variant struct {
	spans, telemetry, trace bool
	threads                 int // overrides the spec's pool size when > 0
}

// solverOut is what a solver workload's run produced.
type solverOut struct {
	setup, steps, restart []sample
	stepsBy               map[variant][]sample
	rounds                int
	attempted, failed     int
	problems              []string
	energy                float64 // end-of-round total energy
	maxCFL                float64
	ruler                 *ruler
	rss                   rssPeaks // one peak per round
	measured              time.Duration
	bootstrap             time.Duration // world start to rank 0 running
	// traced pass only
	rec           *spanRecorder
	phaseSec      [telemetry.NumPhases]float64 // program-made, per step
	phaseSteps    int
	allocsPerStep float64
	allocBytesPer float64
	heapMB        float64
	traceEvents   float64    // per step
	wire          wireTotals // outbound, mean over ranks
	ckptBytes     float64
	cpuShares     map[string]float64 // sampled busy share per layer
	layer         map[string]float64 // in-world layer microbenchmarks
}

func (o *solverOut) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// energyOf reads the total kinetic energy at full precision; collective.
func energyOf(wl core.Workload) (float64, bool) {
	switch s := wl.(type) {
	case core.ChannelFlow:
		return s.ChannelSolver().TotalEnergy(), true
	case *core.IsoSolver:
		return s.TotalEnergy(), true
	}
	return 0, false
}

// instance is one constructed workload with what a round must release.
type instance struct {
	wl   core.Workload
	pool *par.Pool
}

func (in *instance) drop() {
	if in.pool != nil {
		in.pool.Close()
	}
	in.wl, in.pool = nil, nil
}

// runSolver runs rounds of one solver workload for about budget, then (in
// the traced pass, which is the one with a recorder) the in-world layer
// microbenchmarks. A round is
// set-up sample -> bracketed warm steps -> restart sample; every round
// starts from InitDefault(amp, seed) so all rounds walk the same
// trajectory and end at the same energy.
func runSolver(sp solverSpec, seed int64, budget time.Duration, minRounds int, rec *spanRecorder, dir string) *solverOut {
	out := &solverOut{stepsBy: map[variant][]sample{}, layer: map[string]float64{}, rec: rec}
	variants := []variant{{}}
	traced := rec != nil
	if traced {
		variants = []variant{{}, {spans: true}, {spans: true, telemetry: true}, {spans: true, telemetry: true, trace: true}}
		if sp.threads > 1 {
			variants = append(variants, variant{threads: 1})
		}
		// Whole cycles of the variants.
		minRounds *= len(variants)
	}
	runner := mpi.Run
	if sp.tcp {
		runner = mpi.RunTCP
	}
	start := time.Now()
	runner(sp.ranks(), func(c *mpi.Comm) {
		root := c.Rank() == 0
		rl := newRuler(sp.ranks())
		if root {
			out.bootstrap = time.Since(start)
			out.ruler = rl
		}
		measureStart := time.Now()
		var lastRound time.Duration
		// Each rank counts the wire traffic of its own steps; the world
		// total is what the schedule predicts exactly.
		var wire *wireTotals
		if _, onWire := c.WireStats(); traced && onWire {
			wire = &wireTotals{}
		}
		var prof *cpuProfile
		if root && traced {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				out.fail("cpu profile: %v", err)
			}
		}
		rr := &rankRun{c: c, rl: rl, sp: sp, seed: seed, dir: dir, wire: wire, out: out}
		for round := 0; ; round++ {
			// Rank 0 decides, everyone follows: stop when another round
			// would overrun the budget.
			more := 1
			if root && round >= minRounds && time.Since(measureStart)+lastRound > budget {
				more = 0
			}
			if mpi.Bcast(c, 0, []int{more})[0] == 0 {
				break
			}
			t0 := time.Now()
			rr.round(variants[round%len(variants)], round)
			lastRound = time.Since(t0)
			if root {
				out.rounds++
			}
		}
		if root {
			out.measured = time.Since(measureStart)
			if prof != nil {
				var err error
				if out.cpuShares, err = prof.stop(); err != nil {
					out.fail("cpu profile: %v", err)
				}
			}
		}
		if wire != nil {
			sum := mpi.Allreduce(c, mpi.OpSum, []float64{wire.payload, wire.bytes, wire.frames, wire.serializeSec})
			if root {
				n := float64(c.Size())
				out.wire = wireTotals{payload: sum[0] / n, bytes: sum[1] / n, frames: sum[2] / n,
					serializeSec: sum[3] / n, wallSec: wire.wallSec, steps: wire.steps}
			}
		}
		if traced {
			worldLayers(c, rl, sp, out)
		}
	})
	return out
}

// rankRun is one rank's view of a solver run: what every round needs.
type rankRun struct {
	c    *mpi.Comm
	rl   *ruler
	sp   solverSpec
	seed int64
	dir  string      // checkpoint directory
	wire *wireTotals // nil off the wire or untraced
	out  *solverOut  // rank 0 records into it
}

// round runs one round on every rank; rank 0 records.
func (rr *rankRun) round(v variant, round int) {
	c, rl, sp, seed, dir, wire, out := rr.c, rr.rl, rr.sp, rr.seed, rr.dir, rr.wire, rr.out
	root := c.Rank() == 0
	var rec *spanRecorder
	if root && v.spans {
		rec = out.rec
		rec.round = round
	}
	var reg *telemetry.Registry
	var trc *trace.Trace
	if v.telemetry {
		reg = telemetry.NewRegistry()
	}
	if v.trace {
		trc = trace.New(0)
	}
	threads := sp.threads
	if v.threads > 0 {
		threads = v.threads
	}
	build := func() (*instance, error) {
		in := &instance{}
		if threads > 0 {
			in.pool = par.NewPool(threads)
		}
		rec.begin("core.construct")
		wl, err := core.NewWorkload(c, sp.config(in.pool, reg, trc))
		rec.end()
		in.wl = wl
		return in, err
	}
	count := func(n int) {
		if root {
			out.attempted += n
		}
	}
	failf := func(format string, args ...any) {
		if root {
			out.fail("round %d: "+format, append([]any{round}, args...)...)
		}
	}

	// Housekeeping outside every timed region.
	if root {
		runtime.GC()
		debug.FreeOSMemory()
		out.rss.begin()
		defer out.rss.end()
	}
	rec.begin("round")
	defer rec.end()

	// Set-up sample: ask-for-a-run to first completed step.
	c.Barrier()
	firstReading := len(rl.wallMS)
	r0 := rl.read()
	c.Barrier()
	mark := rec.mark()
	rec.begin("setup")
	t0 := now()
	in, err := build()
	if err != nil {
		// Construction is deterministic in the config: every rank fails
		// alike, so returning here keeps the ranks in step.
		rec.end()
		count(1)
		failf("construct: %v", err)
		return
	}
	rec.begin("core.init")
	in.wl.InitDefault(perturbAmp, seed)
	rec.end()
	rec.begin("core.first_step")
	in.wl.StepOnce()
	rec.end()
	c.Barrier()
	t1 := now()
	rec.end()
	r1 := rl.read()
	count(2) // construct+init, first step
	setup := newSample(t0, t1, r0, r1)
	rec.stampRef(mark, setup)
	keep := root && !v.spans && v.threads == 0

	// Warm steps, each bracketed; consecutive steps share a reading.
	var ms0 runtime.MemStats
	var ws0 mpi.WireStats
	var tel0 [telemetry.NumPhases]float64
	var ev0 int64
	if root {
		if v == (variant{}) && out.rec != nil {
			runtime.ReadMemStats(&ms0)
		}
		if reg != nil {
			for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
				tel0[p] = reg.Rank(0).PhaseSeconds(p)
			}
		}
		if trc != nil {
			ev0 = trc.Rank(0).Recorded()
		}
	}
	rec.begin("warm")
	for i := 0; i < sp.warm; i++ {
		c.Barrier()
		mark := rec.mark()
		if wire != nil {
			ws0, _ = c.WireStats()
		}
		rec.begin("core.step")
		t0 := now()
		in.wl.StepOnce()
		if wire != nil {
			ws1, _ := c.WireStats()
			wire.add(ws0, ws1, time.Since(t0.t))
		}
		c.Barrier()
		t1 := now()
		rec.end()
		r2 := rl.read()
		s := newSample(t0, t1, r1, r2)
		rec.stampRef(mark, s)
		r1 = r2
		if root {
			out.stepsBy[v] = append(out.stepsBy[v], s)
			if v == (variant{}) {
				out.steps = append(out.steps, s)
			}
		}
	}
	rec.end()
	count(sp.warm)
	if root {
		if v == (variant{}) && out.rec != nil {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			n := float64(sp.warm)
			out.allocsPerStep = float64(ms1.Mallocs-ms0.Mallocs) / n
			out.allocBytesPer = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
			out.heapMB = float64(ms1.HeapInuse) / (1 << 20)
		}
		if reg != nil && !v.trace {
			for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
				out.phaseSec[p] += reg.Rank(0).PhaseSeconds(p) - tel0[p]
			}
			out.phaseSteps += sp.warm
		}
		if trc != nil {
			out.traceEvents = float64(trc.Rank(0).Recorded()-ev0) / float64(sp.warm)
		}
	}

	// Health of the trajectory so far.
	cfl := in.wl.CFLEstimate()

	// Restart sample: checkpoint -> drop -> construct -> resume -> step.
	// A restarted run is a new process that never holds the old heap, so
	// the old instance is collected between the two timed parts, outside
	// both; that also keeps peak_rss_mb at one instance plus garbage.
	c.Barrier()
	mark = rec.mark()
	rec.begin("restart")
	t0 = now()
	store := in.wl.NewCheckpointStore(dir, 2)
	rec.begin("ckpt.write")
	name, werr := in.wl.WriteCheckpoint(store)
	rec.end()
	tw := now()
	rec.end()
	in.drop()
	if root {
		runtime.GC()
		debug.FreeOSMemory()
	}
	c.Barrier()
	rec.begin("restart")
	tb := now()
	in2, err := build()
	var rerr error
	if err == nil {
		rec.begin("ckpt.restore")
		_, rerr = in2.wl.ResumeLatest(in2.wl.NewCheckpointStore(dir, 2))
		rec.end()
		rec.begin("core.step")
		in2.wl.StepOnce()
		rec.end()
	}
	c.Barrier()
	t1 = now()
	rec.end()
	r2 := rl.read()
	count(3) // checkpoint, restore, step
	restart := newSample(t0, tw, r1, r2)
	rebuild := newSample(tb, t1, r1, r2)
	restart.wall += rebuild.wall
	restart.cpu += rebuild.cpu
	rec.stampRef(mark, restart)
	if werr != nil {
		failf("checkpoint: %v", werr)
	}
	if err != nil {
		failf("construct after checkpoint: %v", err)
		return
	}
	defer in2.drop()
	if rerr != nil {
		failf("resume: %v", rerr)
	}
	if keep {
		// The two single-shot samples of a round are normalised by the
		// mean of all the round's readings (a dozen) rather than by their
		// two neighbours: one reading is a 4 ms sample of bursty weather,
		// and there is no second sample in the round to take a median over.
		setup.refWall = rl.meanSince(firstReading)
		restart.refWall = setup.refWall
		out.setup = append(out.setup, setup)
		if werr == nil && rerr == nil {
			out.restart = append(out.restart, restart)
		}
	}

	// Correctness of the round: outside the timed regions, collective.
	want := 2 + sp.warm
	if got := in2.wl.CurrentStep(); got != want {
		failf("at step %d after the round, want %d", got, want)
	}
	mark = rec.mark()
	r1 = r2
	rec.begin("core.cfl")
	cfl = math.Max(cfl, in2.wl.CFLEstimate())
	rec.end()
	rec.begin("core.status_line")
	line := in2.wl.StatusLine()
	rec.end()
	var verr error
	var bytes int64
	if rec != nil {
		rec.begin("ckpt.verify")
		m, err := store.Verify(name)
		rec.end()
		verr = err
		if err == nil {
			for _, sh := range m.Shards {
				bytes += sh.Bytes
			}
		}
		r2 = rl.read()
		rec.stampRef(mark, newSample(stamp{}, stamp{}, r1, r2))
	} else if v.spans {
		rl.read() // non-root ranks keep the reference runs concurrent
	}
	e, ok := energyOf(in2.wl)
	bc := 0.0
	if cf, isChannel := in2.wl.(core.ChannelFlow); isChannel {
		bc = cf.ChannelSolver().BCResidual()
	}
	if !root {
		return
	}
	if verr != nil {
		failf("verify %s: %v", name, verr)
	}
	if bytes > 0 {
		out.ckptBytes = float64(bytes)
	}
	out.maxCFL = math.Max(out.maxCFL, cfl)
	switch {
	case !ok:
		failf("workload %T exposes no energy", in2.wl)
	case math.IsNaN(e) || math.IsInf(e, 0) || e <= 0:
		failf("energy %v is not finite and positive (%s)", e, line)
	case out.rounds > 0 && e != out.energy:
		failf("energy %.17g differs from the first round's %.17g: rounds are not bit-identical", e, out.energy)
	}
	if out.rounds == 0 {
		out.energy = e
	}
	if math.IsNaN(cfl) || cfl <= 0 || cfl >= 0.5 {
		failf("CFL %v outside (0, 0.5)", cfl)
	}
	if bc > 1e-9 {
		failf("boundary-condition residual %.3e above roundoff", bc)
	}
}

// wireTotals accumulates one rank's outbound wire counters over its steps
// (and, in solverOut, the per-rank mean over the world).
type wireTotals struct {
	payload, bytes, frames float64
	serializeSec, wallSec  float64
	steps                  int
}

func (w *wireTotals) add(a, b mpi.WireStats, wall time.Duration) {
	for r := range b.Peers {
		w.payload += float64(b.Peers[r].PayloadOut - a.Peers[r].PayloadOut)
		w.bytes += float64(b.Peers[r].BytesOut - a.Peers[r].BytesOut)
		w.frames += float64(b.Peers[r].FramesOut - a.Peers[r].FramesOut)
		w.serializeSec += float64(b.Peers[r].SerializeNs-a.Peers[r].SerializeNs) * 1e-9
	}
	w.wallSec += wall.Seconds()
	w.steps++
}
