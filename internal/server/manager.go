package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
	"channeldns/internal/run"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// The job manager owns the queue and the lifecycle. Submitted jobs wait
// in a bounded FIFO channel; a configurable number of worker goroutines
// pull from it and run one job at a time through mpi.Run on the
// in-process transport. Stops (cancel, pause, drain) are delivered
// through a per-job flag that rank 0 reads between steps and broadcasts,
// so every rank leaves the step loop together and the pre-stop
// checkpoint is a clean collective. Nothing the manager does runs inside
// a solver step: publishing, persistence and plane rendering all happen
// strictly between steps, which is what keeps the hot path at its serial
// allocation budget no matter how many watchers are attached.

// Stop requests, in escalation order. The first stop wins
// (CompareAndSwap), so a drain cannot demote a cancel.
const (
	stopNone int32 = iota
	stopCancel
	stopPause
	stopDrain
)

// Job is one submitted run: its identity, spec, latest status, and the
// stream hub its watchers read.
type Job struct {
	ID   int
	Spec JobSpec // defaults resolved
	Hub  *Hub

	mu     sync.Mutex
	status Status

	stop atomic.Int32
	// plane holds the latest rendered PNG frame (single-rank channel
	// workloads only).
	plane atomic.Pointer[planeData]
	// live holds the instrumentation of the current run attempt, for the
	// per-run /telemetry and /trace endpoints.
	live atomic.Pointer[liveRun]
}

type planeData struct {
	png   []byte
	frame PlaneFrame
}

type liveRun struct {
	reg *telemetry.Registry
	trc *trace.Trace
}

// Status returns a copy of the job's current status.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *Job) update(f func(*Status)) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	f(&j.status)
	return j.status
}

// claim moves the job from state from to state to and reports whether it
// was in from: one compare-and-set under the job lock. The worker taking a
// queued job and Cancel dropping it both go through here, so exactly one of
// them gets it.
func (j *Job) claim(from, to string) (ok bool) {
	j.update(func(s *Status) {
		if ok = s.State == from; ok {
			s.State = to
		}
	})
	return ok
}

// requestStop records the first stop request; later, different requests
// lose. Returns the winning kind.
func (j *Job) requestStop(kind int32) int32 {
	if j.stop.CompareAndSwap(stopNone, kind) {
		return kind
	}
	return j.stop.Load()
}

// Plane returns the latest rendered plane PNG and its descriptor.
func (j *Job) Plane() ([]byte, PlaneFrame, bool) {
	pd := j.plane.Load()
	if pd == nil {
		return nil, PlaneFrame{}, false
	}
	return pd.png, pd.frame, true
}

// LiveReport builds a BENCH report from the job's current run attempt
// (nil when the job has not started running).
func (j *Job) LiveReport() *telemetry.Report {
	lr := j.live.Load()
	if lr == nil {
		return nil
	}
	return run.Report("serve", j.Spec.Config(nil, lr.reg, lr.trc), j.Spec.ConfigMap())
}

// LiveTrace returns the run attempt's flight recorder (nil when tracing
// is off or the job has not started).
func (j *Job) LiveTrace() *trace.Trace {
	lr := j.live.Load()
	if lr == nil {
		return nil
	}
	return lr.trc
}

// Options configures a Manager.
type Options struct {
	// Parallel is the number of jobs running concurrently (0 selects 1).
	Parallel int
	// Queue is the submit queue capacity (0 selects 16); Submit fails
	// when the queue is full.
	Queue int
	// Keep is the terminal-run retention of the store: after each job
	// finishes, the oldest terminal runs beyond Keep are pruned
	// (0 keeps everything).
	Keep int
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// ErrQueueFull is returned by Submit when the job queue is at capacity.
var ErrQueueFull = errors.New("server: job queue full")

// ErrDraining is returned by Submit and Resume once Drain has begun.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// ErrNotFound is returned for unknown job ids.
var ErrNotFound = errors.New("server: no such job")

// Manager runs jobs against one RunStore.
type Manager struct {
	store *RunStore
	opts  Options

	mu   sync.Mutex
	jobs map[int]*Job

	queue    chan *Job
	wg       sync.WaitGroup
	draining atomic.Bool
}

// NewManager creates a manager over the run store rooted at dir and
// starts its workers. Call Recover before accepting traffic to re-enqueue
// runs a previous server instance left unfinished.
func NewManager(dir string, opts Options) (*Manager, error) {
	rs, err := NewRunStore(dir)
	if err != nil {
		return nil, err
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}
	if opts.Queue <= 0 {
		opts.Queue = 16
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	m := &Manager{
		store: rs,
		opts:  opts,
		jobs:  make(map[int]*Job),
		queue: make(chan *Job, opts.Queue),
	}
	for i := 0; i < opts.Parallel; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Store returns the manager's run store.
func (m *Manager) Store() *RunStore { return m.store }

func (m *Manager) newJob(id int, spec JobSpec, st Status) *Job {
	return &Job{
		ID:     id,
		Spec:   spec.withDefaults(),
		Hub:    NewHub(),
		status: st,
	}
}

// Recover rediscovers the run store's contents after a restart:
// terminal runs are registered for listing, paused runs wait for an
// explicit resume, and every run whose persisted state says it still
// owes steps — queued, running (the server died mid-flight), or
// interrupted (a graceful drain) — is re-enqueued in id order and will
// resume from its latest checkpoint manifest.
func (m *Manager) Recover() error {
	runs, err := DiscoverRuns(m.store.root)
	if err != nil {
		return err
	}
	for _, ri := range runs {
		job := m.newJob(ri.ID, ri.Spec, ri.Status)
		m.mu.Lock()
		m.jobs[ri.ID] = job
		m.mu.Unlock()
		switch {
		case terminalState(ri.Status.State):
			job.Hub.Close()
		case ri.Status.State == StatePaused:
			m.opts.Logf("recovered %s: paused at step %d", RunID(ri.ID), ri.Status.Step)
		default:
			st := job.update(func(st *Status) { st.State = StateQueued })
			if err := m.store.WriteStatus(ri.ID, st); err != nil {
				return err
			}
			select {
			case m.queue <- job:
				m.opts.Logf("recovered %s: re-enqueued (was %q, checkpoint %q step %d)",
					RunID(ri.ID), ri.Status.State, ri.CkptName, ri.Status.Step)
			default:
				return fmt.Errorf("recover %s: %w", RunID(ri.ID), ErrQueueFull)
			}
		}
	}
	return nil
}

// Submit validates a spec, materializes its run directory and enqueues
// it. Returns the new job or ErrQueueFull.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if spec.Steps <= 0 {
		return nil, fmt.Errorf("steps %d: must be positive", spec.Steps)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Checked under the lock: Drain closes the queue while holding it, so a
	// submit cannot race the close.
	if m.draining.Load() {
		return nil, ErrDraining
	}
	id, err := m.store.NextID()
	if err != nil {
		return nil, err
	}
	st := Status{
		ID:        RunID(id),
		State:     StateQueued,
		Dt:        spec.withDefaults().Dt,
		Submitted: time.Now().UTC(),
	}
	job := m.newJob(id, spec, st)
	// Materialize the run directory before the job becomes visible to a
	// worker: the run loop persists into it from its first moments.
	if err := m.store.Create(id, job.Spec, st); err != nil {
		return nil, err
	}
	select {
	case m.queue <- job:
	default:
		os.RemoveAll(m.store.Dir(id))
		return nil, ErrQueueFull
	}
	m.jobs[id] = job
	m.opts.Logf("submitted %s: %s %dx%dx%d, %d steps",
		st.ID, job.Spec.Workload, job.Spec.Nx, job.Spec.Ny, job.Spec.Nz, job.Spec.Steps)
	return job, nil
}

// Get returns a job by numeric id.
func (m *Manager) Get(id int) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns statuses newest-first, with offset/limit pagination, plus
// the total number of jobs and the offset it used: the requested one
// clamped to [0, total].
func (m *Manager) List(offset, limit int) (page []Status, total, used int) {
	m.mu.Lock()
	ids := make([]int, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	total = len(ids)
	used = min(max(offset, 0), total)
	ids = ids[used:]
	if limit > 0 && limit < len(ids) {
		ids = ids[:limit]
	}
	page = make([]Status, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.Get(id); ok {
			page = append(page, j.Status())
		}
	}
	return page, total, used
}

// Cancel requests a job stop. A running job checkpoints and stops at the
// next step boundary; a queued job is dropped when a worker reaches it
// (and marked cancelled immediately); paused jobs go terminal on the
// spot. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id int) error {
	job, ok := m.Get(id)
	if !ok {
		return ErrNotFound
	}
	m.cancel(job)
	return nil
}

func (m *Manager) cancel(job *Job) {
	job.requestStop(stopCancel)
	if job.claim(StateQueued, StateCancelled) || job.claim(StatePaused, StateCancelled) {
		m.finalize(job, StateCancelled, nil)
	}
}

// Pause requests a running job to checkpoint and stop without going
// terminal; its hub stays open so watchers ride through the resume.
func (m *Manager) Pause(id int) error {
	job, ok := m.Get(id)
	if !ok {
		return ErrNotFound
	}
	if job.Status().State != StateRunning {
		return fmt.Errorf("server: %s is not running", RunID(id))
	}
	job.requestStop(stopPause)
	return nil
}

// Resume re-enqueues a paused (or interrupted) job; it continues from
// its latest checkpoint. Taking the job out of paused is one claim under
// m.mu, so of a Resume and a racing Cancel or second Resume exactly one
// gets the paused job.
func (m *Manager) Resume(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if m.draining.Load() {
		return ErrDraining
	}
	// Refuse before touching the job, so a refused resume leaves it paused
	// and resumable. Submit and Resume are the only senders and both hold
	// m.mu, so a queue with room here still has room at the send below.
	if len(m.queue) == cap(m.queue) {
		return ErrQueueFull
	}
	var claimed bool
	var err error
	st := job.update(func(s *Status) {
		if s.State != StatePaused && s.State != StateInterrupted {
			return
		}
		// Persisted under the job lock: a Cancel that claims the queued job
		// next writes its state to disk after this one, not before.
		q := *s
		q.State = StateQueued
		if err = m.store.WriteStatus(id, q); err == nil {
			*s, claimed = q, true
			job.stop.Store(stopNone)
		}
	})
	if err != nil {
		return err
	}
	if !claimed {
		return fmt.Errorf("server: %s is %s, not resumable", RunID(id), st.State)
	}
	m.queue <- job
	job.Hub.Publish(EventState, st)
	return nil
}

// Drain stops the manager for a graceful shutdown: no new submissions,
// running jobs checkpoint and park as "interrupted", queued jobs keep
// their persisted "queued" state — all of them re-enqueue on the next
// start. Blocks until the workers exit or ctx expires.
func (m *Manager) Drain(ctx context.Context) error {
	if !m.draining.CompareAndSwap(false, true) {
		return nil
	}
	m.mu.Lock()
	for _, job := range m.jobs {
		if job.Status().State == StateRunning {
			job.requestStop(stopDrain)
		}
	}
	close(m.queue)
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		if m.draining.Load() {
			// Graceful shutdown: leave the persisted "queued" state for the
			// next server instance to recover.
			continue
		}
		if !job.claim(StateQueued, StateRunning) {
			continue // cancelled while queued: Cancel claimed and finalized it
		}
		m.runJob(job)
	}
}

// runResult carries what rank 0 learned out of the mpi.Run world.
type runResult struct {
	err     error
	stopped int32
}

func (m *Manager) runJob(job *Job) {
	sp := job.Spec
	pool := par.NewPool(sp.Threads)
	defer pool.Close()
	reg := telemetry.NewRegistry()
	var trc *trace.Trace
	if sp.Trace {
		trc = trace.New(0)
	}
	job.live.Store(&liveRun{reg: reg, trc: trc})

	now := time.Now().UTC()
	st := job.update(func(s *Status) { // already running: the worker claimed it
		s.Started = &now
		s.Error = ""
	})
	if err := m.store.WriteStatus(job.ID, st); err != nil {
		m.finalize(job, StateFailed, err)
		return
	}
	job.Hub.Publish(EventState, st)
	m.opts.Logf("running %s", st.ID)

	var res runResult
	mpi.Run(sp.PA*sp.PB, func(c *mpi.Comm) {
		m.runRanks(c, job, pool, reg, trc, &res)
	})

	switch {
	case res.err != nil:
		m.finalize(job, StateFailed, res.err)
	case res.stopped == stopCancel:
		m.finalize(job, StateCancelled, nil)
	case res.stopped == stopPause:
		m.finalize(job, StatePaused, nil)
	case res.stopped == stopDrain:
		m.finalize(job, StateInterrupted, nil)
	default:
		if err := m.writeArtifacts(job, trc); err != nil {
			m.finalize(job, StateFailed, err)
			return
		}
		m.finalize(job, StateDone, nil)
	}
}

// runRanks is the per-rank body of one run attempt: build the workload and
// hand it to the shared run driver. The hooks below are everything the
// service adds to a run — job-record updates, hub publishing, plane
// rendering, pacing, and the stop flag the driver reads on rank 0 and
// broadcasts. Rank 0 alone touches the job record, the store and the hub.
func (m *Manager) runRanks(c *mpi.Comm, job *Job, pool *par.Pool, reg *telemetry.Registry, trc *trace.Trace, res *runResult) {
	sp := job.Spec
	root := c.Rank() == 0
	wl, err := core.NewWorkload(c, sp.Config(pool, reg, trc))
	if err != nil {
		// Construction is deterministic in the config: every rank fails alike.
		if root {
			res.err = err
		}
		return
	}
	var solver *core.Solver
	if c.Size() == 1 {
		if cf, ok := wl.(core.ChannelFlow); ok {
			solver = cf.ChannelSolver()
		}
	}
	// position records where the run stands in the job status.
	position := func(s *Status) {
		s.Step = wl.CurrentStep()
		s.Time = wl.CurrentTime()
		s.Dt = wl.CurrentDt()
	}
	prevSnap := reg.Snapshot()
	d := &run.Driver{
		WL:          wl,
		Store:       wl.NewCheckpointStore(m.store.CkptDir(job.ID), sp.CkptKeep),
		TargetCFL:   sp.TargetCFL,
		CkptEvery:   sp.CkptEvery,
		StatusEvery: sp.StatusEvery,
		Checkpointed: func(name string) {
			if !root {
				return
			}
			m.persist(job.ID, job.update(func(s *Status) {
				s.Checkpoint = name
				position(s)
			}))
		},
		Status: func(line string) {
			if !root {
				return
			}
			st := job.update(func(s *Status) {
				position(s)
				s.Line = line
			})
			// Watchers hear of the step before its bookkeeping (status file,
			// telemetry delta, plane) is done: a client that reacts to step n
			// with a pause or cancel then lands ahead of the driver's next
			// stop poll and the run parks at n, not one step later by a
			// coin-flip of scheduling.
			job.Hub.Publish(EventStatus, st)
			m.persist(job.ID, st)
			cur := reg.Snapshot()
			if delta := telemetry.DeltaSnapshot(&prevSnap, &cur); !delta.Empty() {
				job.Hub.Publish(EventTelemetry, delta)
			}
			prevSnap = cur
		},
		AfterStep: func() {
			if n := wl.CurrentStep(); solver != nil && sp.PlaneEvery > 0 && n%sp.PlaneEvery == 0 {
				// A non-finite plane has no picture: the last finite frame
				// stays served and no event announces this step.
				if png, frame, err := RenderPlane(solver, core.CompU, solver.Cfg.Ny/2, n); err == nil {
					job.plane.Store(&planeData{png: png, frame: frame})
					job.Hub.Publish(EventPlane, frame)
				}
			}
			if sp.StepDelayMs > 0 {
				time.Sleep(time.Duration(sp.StepDelayMs) * time.Millisecond)
			}
		},
		ShouldStop: func() bool {
			res.stopped = job.stop.Load()
			return res.stopped != stopNone
		},
	}

	// A fresh job has no checkpoint and seeds the canonical initial
	// condition; a recovered or resumed one continues from its latest
	// manifest toward the same absolute target.
	name, err := d.Start(true, sp.Perturb, sp.Seed)
	if err == nil && name != "" && root {
		st := job.update(func(s *Status) {
			s.Resumes++
			s.Checkpoint = name
			position(s)
		})
		m.persist(job.ID, st)
		job.Hub.Publish(EventStatus, st)
		m.opts.Logf("%s: resumed from %s (step %d, t=%.6g)",
			RunID(job.ID), name, wl.CurrentStep(), wl.CurrentTime())
	}
	if err == nil {
		_, err = d.RunTo(sp.Steps)
	}
	if err != nil && root {
		res.err = err
	}
}

// persist writes status.json, logging (not failing) on error — the
// in-memory status remains authoritative while the server lives.
func (m *Manager) persist(id int, st Status) {
	if err := m.store.WriteStatus(id, st); err != nil {
		m.opts.Logf("%s: persist status: %v", RunID(id), err)
	}
}

// writeArtifacts stores the final BENCH report (and trace, if recorded)
// of a completed job.
func (m *Manager) writeArtifacts(job *Job, trc *trace.Trace) error {
	dir := m.store.Dir(job.ID)
	rep := job.LiveReport()
	if rep != nil {
		if err := rep.WriteFile(filepath.Join(dir, "report.json")); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	if trc != nil {
		if err := trc.WriteChromeFile(filepath.Join(dir, "trace.json")); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// finalize moves a job to its post-run state, persists it, tells the
// watchers, and (for terminal states) closes the stream and applies
// retention. Paused jobs keep their hub open for the resume.
func (m *Manager) finalize(job *Job, state string, cause error) {
	now := time.Now().UTC()
	st := job.update(func(s *Status) {
		s.State = state
		if cause != nil {
			s.Error = cause.Error()
		}
		if terminalState(state) {
			s.Finished = &now
		}
	})
	m.persist(job.ID, st)
	job.Hub.Publish(EventState, st)
	if state != StatePaused {
		job.Hub.Close()
	}
	if cause != nil {
		m.opts.Logf("%s: %s: %v", st.ID, state, cause)
	} else {
		m.opts.Logf("%s: %s at step %d", st.ID, state, st.Step)
	}
	if terminalState(state) && m.opts.Keep > 0 {
		if _, err := m.store.Prune(m.opts.Keep); err != nil {
			m.opts.Logf("prune: %v", err)
		}
		m.mu.Lock()
		for id := range m.jobs {
			if id == job.ID {
				continue
			}
			// Drop map entries whose directories were pruned.
			if _, err := m.store.LoadStatus(id); err != nil {
				delete(m.jobs, id)
			}
		}
		m.mu.Unlock()
	}
}
