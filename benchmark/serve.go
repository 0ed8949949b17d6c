package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/server"
	"channeldns/internal/telemetry"
)

// serve-jobs-16: an in-process server on an ephemeral loopback port,
// driven over real HTTP by one closed-loop client. Each job is submitted,
// watched over SSE, paused and resumed once, and run to completion; the
// next job starts when the previous one is done and checked.
const (
	serveSteps   = 60 // steps per job
	servePauseAt = 25 // pause on the first status event at or past this step
)

// serveSpec is the job the client submits; everything it leaves out stays
// at the spec defaults (ckpt_every 10, status every step, plane every 5,
// dt 5e-4).
type serveSpec struct {
	nx, ny, nz     int
	steps, pauseAt int
}

func (s serveSpec) job(seed int64) server.JobSpec {
	return server.JobSpec{Workload: core.WorkloadChannel, Nx: s.nx, Ny: s.ny, Nz: s.nz, Steps: s.steps, Seed: seed}
}

// jobTimes are the client-observed instants of one job.
type jobTimes struct {
	submit0, submit1   stamp // around POST /v1/jobs
	firstEvent         time.Time
	firstStep          stamp
	pause0             stamp // before POST pause
	paused             time.Time
	resume0            time.Time // before POST resume
	resumedStep        stamp     // first step event after the resume
	done               stamp
	stepAtPause        int // step of the event that triggered the pause
	stepPaused         int // step the job checkpointed and parked at
	stepResumed        int
	events, drops      int
	finalLine, id      string
	submitted, started time.Time // the server's own timestamps
}

// serveClient is the single closed-loop client.
type serveClient struct {
	base      string
	http      *http.Client
	attempted int
	failed    int
	problems  []string
}

func (c *serveClient) failf(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// call makes one API request; a refused or non-2xx call is a failure.
// The caller closes the body.
func (c *serveClient) call(method, path string, body []byte) (*http.Response, error) {
	c.attempted++
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.failf("%s %s: %v", method, path, err)
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		c.failf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp, nil
}

// callJSON is call for endpoints answering one JSON document.
func (c *serveClient) callJSON(method, path string, body []byte, into any) error {
	resp, err := c.call(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.failf("%s %s: reading body: %v", method, path, err)
		return err
	}
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			c.failf("%s %s: %v", method, path, err)
			return err
		}
	}
	return nil
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	typ  string
	seq  uint64
	data []byte
}

// readSSE parses the next event from the stream; io.EOF ends it.
func readSSE(r *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.typ != "" {
				return ev, nil
			}
		case strings.HasPrefix(line, "event: "):
			ev.typ = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			ev.seq, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		}
	}
}

// runJob drives one job from submit to done and returns its timeline.
func (c *serveClient) runJob(sp serveSpec, seed int64) (*jobTimes, error) {
	jt := &jobTimes{}
	body, _ := json.Marshal(sp.job(seed))
	var st server.Status

	jt.submit0 = now()
	err := c.callJSON("POST", "/v1/jobs", body, &st)
	jt.submit1 = now()
	if err != nil {
		return nil, err
	}
	jt.id, jt.submitted = st.ID, st.Submitted

	resp, err := c.call("GET", "/v1/jobs/"+jt.id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)

	var lastSeq uint64
	pauseSent, resumed := false, false
	for {
		ev, err := readSSE(rd)
		if err != nil {
			c.failf("%s: stream ended before the job did: %v", jt.id, err)
			return nil, err
		}
		t := now()
		if jt.events == 0 {
			jt.firstEvent = t.t
		}
		switch ev.typ {
		case "end":
			if jt.done.t.IsZero() {
				c.failf("%s: stream ended without a done state", jt.id)
				return nil, errors.New("no done state")
			}
			return jt, nil
		case "dropped":
			jt.drops++
			c.failf("%s: watcher dropped as a slow consumer", jt.id)
			return nil, errors.New("watcher dropped")
		}
		jt.events++
		if ev.seq <= lastSeq {
			c.failf("%s: stream sequence went %d -> %d", jt.id, lastSeq, ev.seq)
		}
		lastSeq = ev.seq
		if ev.typ != server.EventState && ev.typ != server.EventStatus {
			continue
		}
		if err := json.Unmarshal(ev.data, &st); err != nil {
			c.failf("%s: event %d: %v", jt.id, ev.seq, err)
			continue
		}
		if ev.typ == server.EventState {
			switch st.State {
			case server.StateRunning:
				if jt.started.IsZero() && st.Started != nil {
					jt.started = *st.Started
				}
			case server.StatePaused:
				jt.paused, jt.stepPaused = t.t, st.Step
				jt.resume0 = time.Now()
				if err := c.callJSON("POST", "/v1/jobs/"+jt.id+"/resume", nil, nil); err != nil {
					return nil, err
				}
			case server.StateDone:
				jt.done = t
				if st.Step != sp.steps {
					c.failf("%s: done at step %d, want %d", jt.id, st.Step, sp.steps)
				}
				jt.finalLine = st.Line
			case server.StateFailed, server.StateCancelled:
				c.failf("%s: ended %s: %s", jt.id, st.State, st.Error)
				return nil, errors.New(st.State)
			}
			continue
		}
		// A status event: a completed step (or the position a resume
		// restored, which repeats the paused step).
		if st.Step >= 1 && jt.firstStep.t.IsZero() {
			jt.firstStep = t
		}
		if !pauseSent && st.Step >= sp.pauseAt {
			pauseSent = true
			jt.stepAtPause = st.Step
			jt.pause0 = now()
			if err := c.callJSON("POST", "/v1/jobs/"+jt.id+"/pause", nil, nil); err != nil {
				return nil, err
			}
		}
		if !resumed && !jt.paused.IsZero() && st.Step > jt.stepPaused {
			resumed = true
			jt.resumedStep, jt.stepResumed = t, st.Step
		}
	}
}

// serveOut is what the job loop produced.
type serveOut struct {
	setup, step, restart []sample
	jobs                 []*jobTimes
	boot                 time.Duration
	reportMS, scrapeMS   []float64
	measured             time.Duration
	lastCkptDir          string // of the last finished job
	cpuShares            map[string]float64
	rss                  rssPeaks // one peak per job
}

// runJobs boots a server, runs jobs for about budget and shuts it down.
func runJobs(sp serveSpec, seed int64, budget time.Duration, minJobs int, rec *spanRecorder, rl *ruler, dir string) (*serveOut, *serveClient, error) {
	out := &serveOut{rss: rssPeaks{window: 16}}
	t0 := time.Now()
	srv, err := server.New(dir, server.Options{})
	if err != nil {
		return nil, nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	out.boot = time.Since(t0)

	// One API connection plus the stream: no more connections than CPUs
	// on the 2-vCPU host class.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	cl := &serveClient{base: "http://" + addr, http: &http.Client{Transport: tr}}
	defer func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			cl.failf("server close: %v", err)
		}
		if err := <-served; err != nil {
			cl.failf("server serve: %v", err)
		}
	}()

	start := time.Now()
	var last time.Duration
	if rec != nil {
		prof, err := startCPUProfile()
		if err != nil {
			return nil, nil, err
		}
		defer func() {
			if out.cpuShares, err = prof.stop(); err != nil {
				cl.failf("cpu profile: %v", err)
			}
		}()
	}
	for job := 0; job < minJobs || time.Since(start)+last <= budget; job++ {
		jobStart := time.Now()
		if rec != nil {
			rec.round = job
		}
		// Two readings on each side: a job's three samples are single
		// shots, so the ruler's own noise matters.
		out.rss.begin()
		r0 := rl.readMean(2)
		mark := rec.mark()
		rec.begin("job")
		jt, err := cl.runJob(sp, seed)
		if err == nil {
			rec.add("server.submit", jt.submit0.t, jt.submit1.t)
			rec.add("server.first_step", jt.submit1.t, jt.firstStep.t)
			rec.add("server.pause", jt.pause0.t, jt.paused)
			rec.add("server.resume", jt.resume0, jt.resumedStep.t)
			rec.add("server.done", jt.resumedStep.t, jt.done.t)
		}
		rec.end()
		r1 := rl.readMean(2)
		if err != nil {
			return out, cl, nil // counted and described by the client
		}
		ref := newSample(stamp{}, stamp{}, r0, r1)
		rec.stampRef(mark, ref)
		out.rss.end()
		out.jobs = append(out.jobs, jt)
		id, _ := strconv.Atoi(strings.TrimPrefix(jt.id, "job-"))
		out.lastCkptDir = srv.Manager.Store().CkptDir(id)

		// The job's three samples share its bracketing reference readings.
		between := func(a, b stamp) sample { return newSample(a, b, r0, r1) }
		out.setup = append(out.setup, between(jt.submit0, jt.firstStep))
		out.restart = append(out.restart, between(jt.pause0, jt.resumedStep))
		run1, run2 := between(jt.firstStep, jt.pause0), between(jt.resumedStep, jt.done)
		steps := float64(jt.stepAtPause - 1 + sp.steps - jt.stepResumed)
		perStep := ref
		perStep.wall = (run1.wall + run2.wall) / steps
		perStep.cpu = (run1.cpu + run2.cpu) / steps
		out.step = append(out.step, perStep)

		cl.checkJob(jt, sp, out, rec != nil)
		last = time.Since(jobStart)
	}
	out.measured = time.Since(start)
	return out, cl, nil
}

// checkJob verifies a finished job outside the timed regions: its status,
// its stored report (the bench-validate checks) and, in the traced pass,
// the cost of the report and metrics endpoints.
func (c *serveClient) checkJob(jt *jobTimes, sp serveSpec, out *serveOut, traced bool) {
	var st server.Status
	if c.callJSON("GET", "/v1/jobs/"+jt.id, nil, &st) == nil {
		if st.State != server.StateDone || st.Step != sp.steps {
			c.failf("%s: status %s at step %d, want done at %d", jt.id, st.State, st.Step, sp.steps)
		}
		if st.Resumes != 1 {
			c.failf("%s: %d resumes, want the one pause-resume", jt.id, st.Resumes)
		}
	}
	t0 := time.Now()
	resp, err := c.call("GET", "/v1/jobs/"+jt.id+"/report", nil)
	if err == nil {
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		out.reportMS = append(out.reportMS, time.Since(t0).Seconds()*1e3)
		if rerr != nil {
			c.failf("%s: reading report: %v", jt.id, rerr)
		} else if verr := validateReport(raw); verr != nil {
			c.failf("%s: stored report: %v", jt.id, verr)
		}
	}
	if traced {
		t0 = time.Now()
		if resp, err := c.call("GET", "/metrics", nil); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out.scrapeMS = append(out.scrapeMS, time.Since(t0).Seconds()*1e3)
		}
	}
	if i := strings.Index(jt.finalLine, "BCres="); i < 0 {
		c.failf("%s: final status line %q has no BC residual", jt.id, jt.finalLine)
	} else if bc, err := strconv.ParseFloat(strings.TrimSpace(jt.finalLine[i+len("BCres="):]), 64); err != nil || !(bc < 1e-9) {
		c.failf("%s: BC residual in %q not at roundoff", jt.id, jt.finalLine)
	}
	if first := out.jobs[0].finalLine; jt.finalLine != first {
		c.failf("%s: final line %q differs from the first job's %q", jt.id, jt.finalLine, first)
	}
}

// validateReport applies the bench-validate checks to a stored report.
func validateReport(raw []byte) error {
	r, err := telemetry.ValidateJSON(raw)
	if err != nil {
		return err
	}
	if err := r.CheckScheduleConsistency(); err != nil {
		return err
	}
	return r.CheckCheckpointIO()
}

// finalState restores a finished job's last checkpoint into a bare core
// workload and returns its full-precision energy and CFL.
func finalState(sp serveSpec, seed int64, ckptDir string) (energy, cfl float64, err error) {
	cfg := sp.job(seed).Config(nil, nil, nil)
	mpi.Run(1, func(c *mpi.Comm) {
		var wl core.Workload
		if wl, err = core.NewWorkload(c, cfg); err != nil {
			return
		}
		if _, err = wl.ResumeLatest(wl.NewCheckpointStore(ckptDir, 0)); err != nil {
			return
		}
		if got := wl.CurrentStep(); got != sp.steps {
			err = fmt.Errorf("final checkpoint at step %d, want %d", got, sp.steps)
			return
		}
		energy, _ = energyOf(wl)
		cfl = wl.CFLEstimate()
	})
	return energy, cfl, err
}

// serveWorkload runs serve-jobs-16 and turns its samples into metrics.
func serveWorkload(o runOpts, dir string) (*report, error) {
	sp := serveSpec{nx: 16, ny: 17, nz: 16, steps: serveSteps, pauseAt: servePauseAt}
	budget := time.Duration(o.seconds * float64(time.Second))
	minJobs := 3
	if o.quick {
		sp.steps, sp.pauseAt, minJobs, budget = 20, 8, 1, 0
	}
	var rec *spanRecorder
	if o.traced {
		rec = newSpanRecorder(o.workload)
		budget = budget * 45 / 100
	}
	rl := newRuler(1)
	out, cl, err := runJobs(sp, o.seed, budget, minJobs, rec, rl, dir)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}, attempted: cl.attempted, failed: cl.failed,
		problems: cl.problems, ruler: rl}
	rep.notes = append(rep.notes, fmt.Sprintf(
		"channel %dx%dx%d jobs of %d steps over HTTP, pause at step %d then resume: %d jobs  measured %.1fs",
		sp.nx, sp.ny, sp.nz, sp.steps, sp.pauseAt, len(out.jobs), out.measured.Seconds()))
	if len(out.jobs) == 0 {
		return rep, nil
	}
	rep.line = out.jobs[0].finalLine
	lastID := out.jobs[len(out.jobs)-1].id
	e, cfl, err := finalState(sp, o.seed, out.lastCkptDir)
	rep.attempted++
	switch {
	case err != nil:
		rep.failed++
		rep.problems = append(rep.problems, fmt.Sprintf("%s: final checkpoint: %v", lastID, err))
	case math.IsNaN(e) || math.IsInf(e, 0) || e <= 0:
		rep.problems = append(rep.problems, fmt.Sprintf("%s: final energy %v not finite and positive", lastID, e))
	case math.IsNaN(cfl) || cfl <= 0 || cfl >= 0.5:
		rep.problems = append(rep.problems, fmt.Sprintf("%s: final CFL %v outside (0, 0.5)", lastID, cfl))
	}
	rep.energy = e
	if !o.traced {
		endToEnd(rep, out.setup, out.step, out.restart, &out.rss)
		return rep, nil
	}
	if err := serveLayers(o, sp, rep, out, rec, rl, dir); err != nil {
		return nil, err
	}
	return rep, nil
}

// serveLayers is the traced pass's remainder for serve-jobs-16: the
// service-level latencies from the job timelines, then a bare core run at
// the jobs' shape in this same process, which supplies the core, ckpt and
// lower-layer metrics and the denominator of server.overhead_frac.
func serveLayers(o runOpts, sp serveSpec, rep *report, out *serveOut, rec *spanRecorder, rl *ruler, dir string) error {
	m := rep.metrics
	hostMetrics(m, rl, out.measured, o.quick)
	var queue, first, events []float64
	drops := 0
	for i, jt := range out.jobs {
		norm := normalise(1, out.step[i].refWall*1e3) // the job's own reference readings
		queue = append(queue, jt.started.Sub(jt.submitted).Seconds()*1e3*norm)
		first = append(first, jt.firstEvent.Sub(jt.submit1.t).Seconds()*1e3*norm)
		events = append(events, float64(jt.events)/float64(sp.steps))
		drops += jt.drops
	}
	m["server.boot_ms"] = out.boot.Seconds() * 1e3 * rl.scale()
	m["server.queue_to_start_ms"] = median(queue)
	m["server.sse_first_event_ms"] = median(first)
	m["server.events_per_step"] = median(events)
	m["server.watcher_drops"] = float64(drops)
	m["server.report_ms"] = median(out.reportMS) * rl.scale()
	m["server.metrics_scrape_ms"] = median(out.scrapeMS) * rl.scale()

	bare := solverSpec{name: o.workload, workload: core.WorkloadChannel, nx: sp.nx, ny: sp.ny, nz: sp.nz,
		pa: 1, pb: 1, dt: sp.job(o.seed).Config(nil, nil, nil).Dt, warm: 24, fields: 3}
	budget := time.Duration(o.seconds * 0.25 * float64(time.Second))
	minRounds := 1
	if o.quick {
		bare.warm, bare.smoke, budget, minRounds = 6, true, 0, 2
	}
	sout := runSolver(bare, o.seed, budget, minRounds, rec, dir)
	rep.attempted += sout.attempted
	rep.failed += sout.failed
	rep.problems = append(rep.problems, sout.problems...)
	rep.notes = append(rep.notes, "bare core in the same process: "+sout.describe(bare))
	if err := tracedSolverMetrics(m, bare, sout); err != nil {
		return err
	}
	// The busy shares that count for this workload are the service's.
	for l, share := range out.cpuShares {
		m["cpu."+l+"_frac"] = share
	}
	if steps := sout.stepsBy[variant{}]; len(steps) > 0 {
		m["server.overhead_frac"] = median(normMS(out.step))/median(normMS(steps)) - 1
	}
	return writeSpans(o, rep, rec)
}
