package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"channeldns/internal/ckpt"
	"channeldns/internal/core"
	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// smallSpec is the test workhorse: a tiny fixed-dt channel job that
// checkpoints often. Fixed dt (no target_cfl) is what makes interrupted
// trajectories bit-identical on resume.
func smallSpec(steps int) JobSpec {
	return JobSpec{
		Nx: 16, Ny: 24, Nz: 16,
		Dt: 1e-3, Steps: steps,
		CkptEvery: 2, StatusEvery: 2, PlaneEvery: 3,
	}
}

func newTestManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	m, err := NewManager(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitState polls until the job reaches the wanted state or the deadline
// passes.
func waitState(t *testing.T, job *Job, want string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := job.Status()
		if st.State == want {
			return st
		}
		if terminalState(st.State) && st.State != want {
			t.Fatalf("job reached terminal state %q (error %q), want %q", st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job stuck in %q, want %q", job.Status().State, want)
	return Status{}
}

// drainManager shuts the manager down, requiring it to finish in time.
func drainManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestJobLifecycle: a submitted job runs to completion, checkpoints,
// streams status/telemetry/plane events, persists a bench-valid report,
// and ends with a closed stream.
func TestJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, Options{})
	defer drainManager(t, m)

	job, err := m.Submit(smallSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	type read struct {
		events  []Event
		dropped bool
	}
	stream := make(chan read, 1)
	go func() {
		events, dropped := follow(job.Hub)
		stream <- read{events, dropped}
	}()
	st := waitState(t, job, StateDone)

	if st.Step != 6 {
		t.Errorf("final step %d, want 6", st.Step)
	}
	if st.Line == "" || !strings.Contains(st.Line, "step") {
		t.Errorf("status line %q, want a solver status line", st.Line)
	}
	if st.Checkpoint == "" {
		t.Error("no checkpoint recorded in final status")
	}
	if st.Finished == nil {
		t.Error("terminal status without finished timestamp")
	}

	// The stream closed (terminal state) after carrying all event types.
	r := <-stream
	types := map[string]int{}
	for _, ev := range r.events {
		types[ev.Type]++
	}
	for _, typ := range []string{EventState, EventStatus, EventTelemetry, EventPlane} {
		if types[typ] == 0 {
			t.Errorf("stream carried no %q events (saw %v)", typ, types)
		}
	}
	if r.dropped {
		t.Error("patient reader fell behind")
	}

	// The persisted artifacts: status, final checkpoint, bench-valid report.
	diskSt, err := m.Store().LoadStatus(job.ID)
	if err != nil || diskSt.State != StateDone {
		t.Errorf("persisted status %+v, err %v, want done", diskSt, err)
	}
	name, man, err := ckpt.LatestManifest(m.Store().CkptDir(job.ID))
	if err != nil || man.Step != 6 {
		t.Errorf("latest checkpoint %q step %v err %v, want step 6", name, man, err)
	}
	raw, err := os.ReadFile(filepath.Join(m.Store().Dir(job.ID), "report.json"))
	if err != nil {
		t.Fatalf("report.json: %v", err)
	}
	rep, err := telemetry.ValidateJSON(raw)
	if err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if err := rep.CheckScheduleConsistency(); err != nil {
		t.Errorf("report schedule consistency: %v", err)
	}
	if err := rep.CheckCheckpointIO(); err != nil {
		t.Errorf("report checkpoint accounting: %v", err)
	}
	if rep.Table != "serve" {
		t.Errorf("report table %q, want serve", rep.Table)
	}

	// The rendered plane is a real PNG of the dealiased physical grid.
	png, frame, ok := job.Plane()
	if !ok {
		t.Fatal("no plane rendered for a single-rank channel job")
	}
	if !bytes.HasPrefix(png, []byte("\x89PNG")) {
		t.Error("plane payload is not a PNG")
	}
	if frame.W == 0 || frame.H == 0 || frame.Step == 0 {
		t.Errorf("degenerate plane frame %+v", frame)
	}
}

// crashVictimEnv, set to a run-store directory, makes the test binary the
// victim server of TestCrashRecoveryBitIdentical instead of the test.
const crashVictimEnv = "CHANNELDNS_CRASH_VICTIM_DIR"

// TestCrashRecoveryBitIdentical is the acceptance test for crash-safe
// resume: a job checkpointed mid-flight, its server SIGKILLed (the test
// binary re-executed as a child that serves the job; the kill can land in
// the middle of any write, leaving status.json claiming "running"), a new
// server on the same store auto-resumes it — and the completed trajectory
// is bit-identical to an uninterrupted run of the same spec: same manifest
// position, same shard checksums, same shard bytes.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	if dir := os.Getenv(crashVictimEnv); dir != "" {
		// The reference physics, throttled so the kill lands mid-flight.
		spec := smallSpec(10)
		spec.StepDelayMs = 50
		if _, err := newTestManager(t, dir, Options{}).Submit(spec); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Minute)
		t.Fatal("victim server was not killed")
	}

	// Reference: the uninterrupted run.
	refDir := t.TempDir()
	mRef := newTestManager(t, refDir, Options{})
	refJob, err := mRef.Submit(smallSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, refJob, StateDone)
	drainManager(t, mRef)

	// The victim: a child server on a fresh store, whose first job takes
	// the store's next id.
	crashDir := t.TempDir()
	rs, err := NewRunStore(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rs.NextID()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	victim := exec.Command(os.Args[0], "-test.run=^TestCrashRecoveryBitIdentical$")
	victim.Env = append(os.Environ(), crashVictimEnv+"="+crashDir)
	victim.Stdout, victim.Stderr = &out, &out
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first published checkpoint manifest, then SIGKILL.
	ckptDir := rs.CkptDir(id)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, _, err := ckpt.LatestManifest(ckptDir); err == nil {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatalf("no checkpoint manifest appeared; victim output:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Wait(); err == nil {
		t.Fatalf("victim exited cleanly before the kill; output:\n%s", out.String())
	}

	// The on-disk record is what the death left: status still claims
	// "running", mid-flight.
	diskSt, err := rs.LoadStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if diskSt.State != StateRunning {
		t.Fatalf("killed run persisted state %q, want %q", diskSt.State, StateRunning)
	}
	if diskSt.Step >= 10 {
		t.Fatalf("crash landed after completion (step %d); raise the throttle", diskSt.Step)
	}

	// Restart: recovery must find the run and finish it without any client
	// involvement.
	m2 := newTestManager(t, crashDir, Options{})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	job2, ok := m2.Get(id)
	if !ok {
		t.Fatal("recovered manager does not know the crashed job")
	}
	st := waitState(t, job2, StateDone)
	if st.Resumes < 1 {
		t.Errorf("recovered job reports %d resumes, want >= 1", st.Resumes)
	}
	drainManager(t, m2)

	// Bit-identity against the reference.
	refName, refMan, err := ckpt.LatestManifest(mRef.Store().CkptDir(refJob.ID))
	if err != nil {
		t.Fatal(err)
	}
	gotName, gotMan, err := ckpt.LatestManifest(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if gotName != refName || gotMan.Step != refMan.Step {
		t.Fatalf("final checkpoint %s step %d, reference %s step %d",
			gotName, gotMan.Step, refName, refMan.Step)
	}
	if gotMan.Time != refMan.Time || gotMan.Dt != refMan.Dt {
		t.Errorf("resumed trajectory diverged: t=%v dt=%v, reference t=%v dt=%v",
			gotMan.Time, gotMan.Dt, refMan.Time, refMan.Dt)
	}
	if len(gotMan.Shards) != len(refMan.Shards) {
		t.Fatalf("%d shards vs reference %d", len(gotMan.Shards), len(refMan.Shards))
	}
	for i, sh := range gotMan.Shards {
		ref := refMan.Shards[i]
		if sh.CRC32C != ref.CRC32C || sh.Bytes != ref.Bytes {
			t.Errorf("shard %d: crc %s (%d bytes) vs reference %s (%d bytes): not bit-identical",
				i, sh.CRC32C, sh.Bytes, ref.CRC32C, ref.Bytes)
		}
		got, err := os.ReadFile(filepath.Join(ckptDir, gotName, sh.File))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(mRef.Store().CkptDir(refJob.ID), refName, ref.File))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shard %d: raw bytes differ from the uninterrupted run", i)
		}
	}
}

// TestCancelWritesCheckpoint: cancelling a running job stops it at a step
// boundary with a fresh checkpoint and a terminal, closed stream.
func TestCancelWritesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, Options{})
	defer drainManager(t, m)
	spec := smallSpec(1000) // far more steps than we let it take
	spec.StepDelayMs = 10
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning)
	time.Sleep(50 * time.Millisecond)
	if err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, job, StateCancelled)
	if st.Step >= 1000 {
		t.Error("cancel did not interrupt the run")
	}
	name, man, err := ckpt.LatestManifest(m.Store().CkptDir(job.ID))
	if err != nil {
		t.Fatalf("cancelled run has no checkpoint: %v", err)
	}
	if int(man.Step) != st.Step {
		t.Errorf("pre-stop checkpoint %s at step %d, status says %d", name, man.Step, st.Step)
	}
	// The hub closes just after the status flips terminal; give it a beat.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, open := job.Hub.Wait(ctx, math.MaxUint64); open {
		t.Fatal("hub still open after a terminal state")
	}
}

// TestPauseResume: pause parks the job resumably with its hub open;
// resume continues from the pause checkpoint to completion.
func TestPauseResume(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, Options{})
	defer drainManager(t, m)
	spec := smallSpec(12)
	spec.StepDelayMs = 10
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	go follow(job.Hub)
	waitState(t, job, StateRunning)
	time.Sleep(30 * time.Millisecond)
	if err := m.Pause(job.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, job, StatePaused)
	if st.Step >= 12 {
		t.Fatal("pause landed after completion; raise the throttle")
	}
	if _, open := job.Hub.Since(0); !open {
		t.Error("pause closed the hub; watchers must ride through the resume")
	}
	pausedAt := st.Step

	if err := m.Resume(job.ID); err != nil {
		t.Fatal(err)
	}
	st = waitState(t, job, StateDone)
	if st.Step != 12 {
		t.Errorf("resumed job finished at step %d, want 12", st.Step)
	}
	if st.Resumes < 1 {
		t.Errorf("resumed job reports %d resumes, want >= 1", st.Resumes)
	}
	if st.Step <= pausedAt {
		t.Error("no progress after resume")
	}
}

// TestResumeOnFullQueue: a resume that finds the queue full must leave the
// job as it was — paused in memory and on disk — so a later resume works.
func TestResumeOnFullQueue(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{Queue: 1})
	defer drainManager(t, m)
	slow := func(steps int) *Job {
		spec := smallSpec(steps)
		spec.StepDelayMs = 10
		job, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	job := slow(8)
	waitState(t, job, StateRunning)
	if err := m.Pause(job.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StatePaused)
	blocker := slow(1000)
	waitState(t, blocker, StateRunning)
	queued := slow(2) // fills the one queue slot behind the blocker

	if err := m.Resume(job.ID); err != ErrQueueFull {
		t.Fatalf("resume on a full queue: %v, want ErrQueueFull", err)
	}
	disk, err := m.Store().LoadStatus(job.ID)
	if st := job.Status().State; st != StatePaused || err != nil || disk.State != StatePaused {
		t.Fatalf("after the refused resume: state %q, on disk %q (err %v), want paused", st, disk.State, err)
	}
	m.Cancel(blocker.ID)
	waitState(t, queued, StateRunning) // the slot is free again
	if err := m.Resume(job.ID); err != nil {
		t.Fatalf("resume with room in the queue: %v", err)
	}
	if st := waitState(t, job, StateDone); st.Step != 8 {
		t.Errorf("resumed job finished at step %d, want 8", st.Step)
	}
}

// TestCancelQueuedFinalizedOnce: Cancel finalizes a queued job on the spot;
// the worker that later takes it off the queue must not finalize it again.
func TestCancelQueuedFinalizedOnce(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	spec := smallSpec(1000)
	spec.StepDelayMs = 10
	blocker, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	job, _ := m.Submit(smallSpec(2))
	last, _ := m.Submit(smallSpec(2))
	m.Cancel(job.ID)
	st := waitState(t, job, StateCancelled)
	statusFile := filepath.Join(m.Store().Dir(job.ID), "status.json")
	onDisk, err := os.ReadFile(statusFile)
	if err != nil || st.Finished == nil {
		t.Fatalf("cancelled queued job: finished %v, status file err %v", st.Finished, err)
	}
	m.Cancel(blocker.ID)
	waitState(t, last, StateDone) // FIFO: the worker has been past the cancelled job
	if got := job.Status().Finished; !got.Equal(*st.Finished) {
		t.Errorf("finished re-stamped by the worker: %v, was %v", got, st.Finished)
	}
	if now, _ := os.ReadFile(statusFile); !bytes.Equal(now, onDisk) {
		t.Errorf("status.json rewritten by the worker:\n%s\nwas:\n%s", now, onDisk)
	}
}

// TestCancelRacesClaim: Cancel against the worker taking the same queued job
// off the queue. Whichever claims the job owns it, so it is finalized once —
// one finalize log line, one terminal state event — whether Cancel dropped it
// or the worker ran it into the stop flag. (Before the claim, a Cancel that
// read "queued" just ahead of the worker's store of "running" finalized a job
// that then ran and was finalized again.)
func TestCancelRacesClaim(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	var mu sync.Mutex
	finalized := map[any]int{}
	// A cancelled job keeps its queue slot until the worker reaches it.
	m := newTestManager(t, t.TempDir(), Options{Queue: iters, Logf: func(format string, args ...any) {
		if strings.HasSuffix(format, "at step %d") { // finalize's line: id, state, step
			mu.Lock()
			finalized[args[0]]++
			mu.Unlock()
		}
	}})
	defer drainManager(t, m)
	var jobs []*Job
	for i := 0; i < iters; i++ {
		job, err := m.Submit(JobSpec{Nx: 4, Ny: 9, Nz: 4, Dt: 1e-3, Steps: 1})
		if err != nil {
			t.Fatal(err)
		}
		for spin := i % 40 * 50; spin > 0; spin-- { // sweep Cancel across the worker's claim
			runtime.Gosched()
		}
		m.Cancel(job.ID)
		jobs = append(jobs, job)
		for !terminalState(job.Status().State) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	drainManager(t, m) // the worker is past every job
	for _, job := range jobs {
		terminal := 0
		events, _ := job.Hub.Since(0)
		for _, ev := range events {
			var st Status
			if ev.Type == EventState && json.Unmarshal(ev.Data, &st) == nil && terminalState(st.State) {
				terminal++
			}
		}
		mu.Lock()
		n := finalized[RunID(job.ID)]
		mu.Unlock()
		if n != 1 || terminal != 1 {
			t.Errorf("%s (%s): finalized %d times, %d terminal state events, want 1 and 1",
				RunID(job.ID), job.Status().State, n, terminal)
		}
	}
}

// pausedJob registers a job as a landed Pause leaves it: run directory on
// disk, state paused, stop flag still set, hub open. Once resumed it runs
// for a second, so a Cancel after the Resume reaches it still running.
func pausedJob(t *testing.T, m *Manager) *Job {
	t.Helper()
	id, err := m.store.NextID()
	if err != nil {
		t.Fatal(err)
	}
	st := Status{ID: RunID(id), State: StatePaused}
	job := m.newJob(id, JobSpec{Nx: 4, Ny: 9, Nz: 4, Dt: 1e-3, Steps: 100, StepDelayMs: 10}, st)
	if err := m.store.Create(id, job.Spec, st); err != nil {
		t.Fatal(err)
	}
	job.stop.Store(stopPause)
	m.mu.Lock()
	m.jobs[id] = job
	m.mu.Unlock()
	return job
}

// waitParked polls the goroutine dump until n goroutines block in state
// (the wait reason the dump prints: "sync.Mutex.Lock", "select") with frame
// in on their stack and none of notIn. It is how the resume races below
// hold a Resume at a chosen lock.
func waitParked(t *testing.T, n int, state, in string, notIn ...string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got := 0
	stacks:
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if !strings.Contains(g, "["+state) || !strings.Contains(g, in) {
				continue
			}
			for _, s := range notIn {
				if strings.Contains(g, s) {
					continue stacks
				}
			}
			got++
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked in %s, want %d", got, in, n)
		}
	}
}

// holdResumes parks n concurrent Resumes of job on the job lock, then
// reports whether they read the job's state before taking m.mu. If they
// did (a read-then-write Resume), they return with m.mu held and every
// Resume past its read, waiting for it; the caller runs its interleaving
// there and unlocks. If not, the claim is under m.mu and there is no such
// window: the Resumes are released and run one after the other.
func holdResumes(t *testing.T, m *Manager, job *Job, n int) (errs chan error, readFirst bool) {
	const resume, get = "(*Manager).Resume", "(*Manager).Get"
	errs = make(chan error, n)
	job.mu.Lock()
	for i := 0; i < n; i++ {
		go func() { errs <- m.Resume(job.ID) }()
	}
	waitParked(t, n, "sync.Mutex.Lock", resume, get)
	readFirst = m.mu.TryLock() // taken: one Resume holds it, parked in its claim
	job.mu.Unlock()
	if readFirst {
		waitParked(t, n, "sync.Mutex.Lock", resume, get, "(*Job).Status")
	}
	return errs, readFirst
}

// TestCancelRacesResume: a Cancel of a paused job landing between a
// Resume's read of "paused" and its write of "queued". Before the claim,
// Cancel finalized the job cancelled and the Resume then overwrote it to
// queued, on disk too, and ran it.
func TestCancelRacesResume(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	job := pausedJob(t, m)
	errs, readFirst := holdResumes(t, m, job, 1)
	if readFirst {
		m.cancel(job) // Cancel minus its m.mu lookup
		m.mu.Unlock()
		<-errs
	} else {
		<-errs
		m.Cancel(job.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !terminalState(job.Status().State) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := job.Status(); st.State != StateCancelled {
		t.Errorf("job is %s after cancel, want %s", st.State, StateCancelled)
	}
	if st, err := m.store.LoadStatus(job.ID); err != nil || st.State != StateCancelled {
		t.Errorf("status.json: %s (%v), want %s", st.State, err, StateCancelled)
	}
}

// TestDoubleResumeEnqueuesOnce: two Resumes of one paused job, both
// started before either writes. Exactly one re-enqueues it; before the
// claim, both read "paused" and both enqueued.
func TestDoubleResumeEnqueuesOnce(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	job := pausedJob(t, m)
	errs, readFirst := holdResumes(t, m, job, 2)
	if readFirst {
		m.mu.Unlock()
	}
	resumed := 0
	for i := 0; i < 2; i++ {
		if <-errs == nil {
			resumed++
		}
	}
	if resumed != 1 {
		t.Errorf("%d of 2 racing resumes re-enqueued the job, want 1", resumed)
	}
	m.Cancel(job.ID)
}

// TestSubmitValidation: doomed specs are rejected at the door, not
// queued.
func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"unknown workload", JobSpec{Workload: "warp-drive", Nx: 16, Ny: 24, Nz: 16, Steps: 1}},
		{"odd nx", JobSpec{Nx: 15, Ny: 24, Nz: 16, Steps: 1}},
		{"zero steps", JobSpec{Nx: 16, Ny: 24, Nz: 16}},
		{"negative dt", JobSpec{Nx: 16, Ny: 24, Nz: 16, Steps: 1, Dt: -1}},
		{"bad form", JobSpec{Nx: 16, Ny: 24, Nz: 16, Steps: 1, Form: "rotational"}},
		{"negative delay", JobSpec{Nx: 16, Ny: 24, Nz: 16, Steps: 1, StepDelayMs: -5}},
	} {
		if _, err := m.Submit(tc.spec); err == nil {
			t.Errorf("%s: submitted without error", tc.name)
		}
	}
	if _, total, _ := m.List(0, 0); total != 0 {
		t.Errorf("%d jobs queued from invalid specs", total)
	}
}

// TestConfigMapThreads: the report config block names the worker count the
// job runs with, which is one when the spec leaves threads zero.
func TestConfigMapThreads(t *testing.T) {
	for _, tc := range []struct {
		threads int
		want    string
	}{{0, "1"}, {1, "1"}, {3, "3"}} {
		sp := JobSpec{Nx: 8, Ny: 17, Nz: 8, Steps: 1, Threads: tc.threads}
		if got := sp.ConfigMap()["threads"]; got != tc.want {
			t.Errorf("threads %d: config block says %q, want %q", tc.threads, got, tc.want)
		}
		if got := fmt.Sprint(sp.Workers()); got != tc.want {
			t.Errorf("threads %d: Workers() = %s, want %s", tc.threads, got, tc.want)
		}
	}
}

// TestConstructionFailureFailsJob: a job whose workload cannot be built
// fails with a stored error instead of wedging a worker. Submit refuses such
// a spec at the door, so this one (Ny below the B-spline degree floor) is a
// queued run left on disk by a server that accepted it, found by Recover.
func TestConstructionFailureFailsJob(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	spec := JobSpec{Nx: 16, Ny: 6, Nz: 16, Steps: 2}
	if spec.Validate() == nil {
		t.Fatal("the spec passes Validate: it would not reach construction")
	}
	if err := m.Store().Create(0, spec, Status{ID: RunID(0), State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	job, _ := m.Get(0)
	st := waitState(t, job, StateFailed)
	if st.Error == "" {
		t.Error("failed job carries no error")
	}
}

// TestHostileSpecsRefused: the three bodies that used to panic dnsserve — a
// grid below the Fourier minimum and two process grids that leave a rank an
// empty pencil window — and an isotropic box of negative height, which used
// to be accepted and run, get 400 from POST /v1/jobs, core refuses each
// configuration with an error, and the server goes on answering. So does a
// negative worker count, which used to run on one worker; core never sees
// that field, so only the server refuses it.
func TestHostileSpecsRefused(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	srv := httptest.NewServer(NewAPI(m).Routes())
	defer srv.Close()
	serviceOnly := `{"nx":16,"ny":17,"nz":16,"steps":1,"threads":-1}`
	// The chunked exchange is gone, so its knob is an unknown field.
	retired := `{"nx":16,"ny":17,"nz":16,"steps":1,"pa":2,"pb":2,"overlap":true}`
	for _, body := range []string{
		`{"nx":2,"ny":17,"nz":2,"steps":1}`,
		`{"nx":4,"ny":17,"nz":4,"steps":1,"pa":4,"pb":4}`,
		`{"nx":16,"ny":17,"nz":16,"steps":1,"pb":32}`,
		`{"workload":"isotropic","nx":16,"ny":16,"nz":16,"steps":1,"ly":-1}`,
		serviceOnly,
		retired,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		answer, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
		if body == retired {
			if !strings.Contains(string(answer), `unknown field \"overlap\"`) {
				t.Errorf("%s: answer %s does not name the field", body, answer)
			}
			continue
		}
		spec, err := decodeSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if body != serviceOnly {
			mpi.Run(spec.World(), func(c *mpi.Comm) {
				if _, err := core.NewWorkload(c, spec.Config(nil, nil, nil)); err == nil {
					t.Errorf("%s: core.NewWorkload built it", body)
				}
			})
		}
		resp, err = http.Get(srv.URL + "/v1/jobs")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: server stopped answering /v1/jobs: %v", body, err)
		}
		resp.Body.Close()
	}
	if _, total, _ := m.List(0, 0); total != 0 {
		t.Errorf("%d jobs queued from hostile specs", total)
	}
}

const serveMetricsGolden = `# HELP dnsserve_jobs_total Jobs known to this server.
# TYPE dnsserve_jobs_total gauge
dnsserve_jobs_total 2
# HELP dnsserve_jobs Jobs by lifecycle state.
# TYPE dnsserve_jobs gauge
dnsserve_jobs{state="queued"} 0
dnsserve_jobs{state="running"} 0
dnsserve_jobs{state="paused"} 1
dnsserve_jobs{state="done"} 1
dnsserve_jobs{state="failed"} 0
dnsserve_jobs{state="cancelled"} 0
dnsserve_jobs{state="interrupted"} 0
# HELP dnsserve_stream_watchers Attached stream clients.
# TYPE dnsserve_stream_watchers gauge
dnsserve_stream_watchers 0
# HELP dnsserve_job_step Current step of non-terminal jobs.
# TYPE dnsserve_job_step gauge
dnsserve_job_step{job="job-000007"} 3
`

// TestAPI drives the full HTTP surface end to end against a live
// httptest server: submit, list, get, long-poll stream, SSE stream,
// report, plane, metrics, cancel.
func TestAPI(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	api := NewAPI(m)
	ts := httptest.NewServer(api.Routes())
	defer ts.Close()

	// Bad spec → 400 with a JSON error.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"nx":15}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid submit: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown field → 400 (strict decoding).
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"nx":16,"ny":24,"nz":16,"steps":2,"ckpt_evry":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("typoed field: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Good spec → 201 with the queued status.
	spec, _ := json.Marshal(smallSpec(6))
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("submit: status %d id %q, want 201 with an id", resp.StatusCode, st.ID)
	}

	// SSE: attach while running, read until the terminal "end" marker.
	sseDone := make(chan sseRead, 1)
	go func() { sseDone <- readSSE(ts.URL + "/v1/jobs/" + st.ID + "/stream") }()

	// Long-poll until done, following the seq cursor.
	var after uint64
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?after=%d&wait=2s", ts.URL, st.ID, after))
		if err != nil {
			t.Fatal(err)
		}
		var batch struct {
			Events []Event `json:"events"`
			Open   bool    `json:"open"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, ev := range batch.Events {
			if ev.Seq <= after {
				t.Errorf("long-poll replayed seq %d at cursor %d", ev.Seq, after)
			}
			after = ev.Seq
		}
		if !batch.Open {
			break
		}
	}

	// The SSE side saw the same stream end.
	var live sseRead
	select {
	case live = <-sseDone:
		if live.types == nil {
			t.Fatal("SSE request failed")
		}
		if live.types["end"] == 0 || live.last != "end" {
			t.Errorf("SSE stream missing end marker: %v, last %q", live.types, live.last)
		}
		if live.types[EventStatus] == 0 {
			t.Errorf("SSE stream carried no status events: %v", live.types)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate with the job")
	}

	// Long-poll from the start returns the sequence numbers SSE delivered,
	// and a stream opened on the finished job replays them and ends.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream?after=0&wait=0s")
	if err != nil {
		t.Fatal(err)
	}
	var all struct {
		Events []Event `json:"events"`
		Open   bool    `json:"open"`
	}
	json.NewDecoder(resp.Body).Decode(&all)
	resp.Body.Close()
	var polled []uint64
	for _, ev := range all.Events {
		polled = append(polled, ev.Seq)
	}
	if all.Open || fmt.Sprint(polled) != fmt.Sprint(live.seqs) {
		t.Errorf("long-poll from 0: seqs %v open %v; SSE delivered %v", polled, all.Open, live.seqs)
	}
	if late := readSSE(ts.URL + "/v1/jobs/" + st.ID + "/stream"); late.last != "end" ||
		fmt.Sprint(late.seqs) != fmt.Sprint(live.seqs) {
		t.Errorf("SSE on the finished job: seqs %v, last %q; want %v then end", late.seqs, late.last, live.seqs)
	}

	// GET status, report, plane, list, metrics.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateDone {
		t.Fatalf("job state %q, want done", st.State)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var rawRep bytes.Buffer
	rawRep.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	if _, err := telemetry.ValidateJSON(rawRep.Bytes()); err != nil {
		t.Errorf("served report invalid: %v", err)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/plane.png")
	if err != nil {
		t.Fatal(err)
	}
	var pngBuf bytes.Buffer
	pngBuf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(pngBuf.Bytes(), []byte("\x89PNG")) {
		t.Errorf("plane.png: status %d, %d bytes", resp.StatusCode, pngBuf.Len())
	}

	resp, err = http.Get(ts.URL + "/v1/jobs?limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs  []Status `json:"jobs"`
		Total int      `json:"total"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if list.Total != 1 || len(list.Jobs) != 1 {
		t.Errorf("list: total %d with %d jobs, want 1/1", list.Total, len(list.Jobs))
	}
	// The page reports the offset it used, clamped to [0, total].
	for query, want := range map[string]int{"offset=-3": 0, "offset=5": 1, "offset=1&limit=1": 1} {
		resp, err = http.Get(ts.URL + "/v1/jobs?" + query)
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			Jobs   []Status `json:"jobs"`
			Offset int      `json:"offset"`
		}
		json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if page.Offset != want || len(page.Jobs) != 1-want {
			t.Errorf("list?%s: offset %d with %d jobs, want %d with %d", query, page.Offset, len(page.Jobs), want, 1-want)
		}
	}

	// A finished job is not resumable: 409.
	if code := post(t, ts.URL+"/v1/jobs/"+st.ID+"/resume", ""); code != http.StatusConflict {
		t.Errorf("resume of a finished job: status %d, want 409", code)
	}

	// A paused record beside the finished job, so the scrape carries a
	// per-job step sample; the body is held byte for byte.
	m.mu.Lock()
	m.jobs[7] = m.newJob(7, smallSpec(6), Status{ID: RunID(7), State: StatePaused, Step: 3})
	m.mu.Unlock()
	// A stream handler counts its client out only after the client has read
	// the stream's end: wait for the SSE clients above to be counted out.
	for deadline := time.Now().Add(10 * time.Second); api.watcherConns.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("/metrics Content-Type %q, want the world dashboard's %q", ct, telemetry.PromContentType)
	}
	if metrics.String() != serveMetricsGolden {
		t.Errorf("/metrics body:\n%s\nwant:\n%s", metrics.String(), serveMetricsGolden)
	}

	// DELETE on a finished job is a accepted no-op; on an unknown id, 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("cancel finished job: status %d, want 202", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// A busy server answers 503 to submit and resume alike: first with its
	// one queue slot taken behind a running job, then while draining.
	full := newTestManager(t, t.TempDir(), Options{Queue: 1})
	defer drainManager(t, full)
	fs := httptest.NewServer(NewAPI(full).Routes())
	defer fs.Close()
	slow := smallSpec(1000)
	slow.StepDelayMs = 10
	blocker, err := full.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	if _, err := full.Submit(smallSpec(2)); err != nil {
		t.Fatal(err)
	}
	paused := pausedJob(t, full)
	body := string(spec)
	for _, phase := range []string{"full queue", "draining"} {
		if phase == "draining" {
			drainManager(t, full)
		}
		if code := post(t, fs.URL+"/v1/jobs", body); code != http.StatusServiceUnavailable {
			t.Errorf("submit on a %s: status %d, want 503", phase, code)
		}
		if code := post(t, fs.URL+"/v1/jobs/"+RunID(paused.ID)+"/resume", ""); code != http.StatusServiceUnavailable {
			t.Errorf("resume on a %s: status %d, want 503", phase, code)
		}
	}
}

// post sends body to url and returns the response status.
func post(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// sseRead is what one SSE client read: the count of each event type, the
// sequence numbers in order, and the last event's type.
type sseRead struct {
	types map[string]int
	seqs  []uint64
	last  string
}

// readSSE reads an SSE stream to its end (nil types if the request failed).
func readSSE(url string) sseRead {
	var r sseRead
	resp, err := http.Get(url)
	if err != nil {
		return r
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	r.types = map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			r.types[name]++
			r.last = name
		}
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			seq, _ := strconv.ParseUint(id, 10, 64)
			r.seqs = append(r.seqs, seq)
		}
	}
	return r
}

// TestIsotropicJob: the registry integration is workload-agnostic — an
// isotropic job runs, checkpoints, and finishes without channel-specific
// features (no plane frames).
func TestIsotropicJob(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	job, err := m.Submit(JobSpec{
		Workload: "isotropic", Nx: 16, Ny: 16, Nz: 16,
		ReTau: 100, Dt: 1e-3, Steps: 4, CkptEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, job, StateDone)
	if st.Step != 4 {
		t.Errorf("final step %d, want 4", st.Step)
	}
	if _, _, ok := job.Plane(); ok {
		t.Error("isotropic job rendered a channel plane")
	}
	if _, man, err := ckpt.LatestManifest(m.Store().CkptDir(job.ID)); err != nil || man.Workload != "isotropic" {
		t.Errorf("isotropic checkpoint: %+v, err %v", man, err)
	}
}

// TestDiscoverRunsAndPrune: the discovery primitive `ckpt ls -runs` and
// restart recovery share, plus retention keeping non-terminal runs safe.
func TestDiscoverRunsAndPrune(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, Options{})
	ids := make([]*Job, 3)
	for i := range ids {
		var err error
		ids[i], err = m.Submit(smallSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, ids[i], StateDone)
	}
	drainManager(t, m)

	runs, err := DiscoverRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("discovered %d runs, want 3", len(runs))
	}
	for i, ri := range runs {
		if ri.ID != i {
			t.Errorf("run %d has id %d (want ascending ids)", i, ri.ID)
		}
		if ri.Status.State != StateDone || ri.Resumable() {
			t.Errorf("run %d: state %q resumable=%v, want done/false", i, ri.Status.State, ri.Resumable())
		}
		if ri.Manifest == nil || ri.Manifest.Step != 2 {
			t.Errorf("run %d: latest manifest %+v, want step 2", i, ri.Manifest)
		}
		if ri.Spec.Nx != 16 {
			t.Errorf("run %d: spec not recovered: %+v", i, ri.Spec)
		}
	}

	rs, _ := NewRunStore(dir)
	removed, err := rs.Prune(1)
	if err != nil || removed != 2 {
		t.Fatalf("prune: removed %d err %v, want 2", removed, err)
	}
	runs, _ = DiscoverRuns(dir)
	if len(runs) != 1 || runs[0].ID != 2 {
		t.Errorf("after prune: %d runs (first id %d), want newest survivor only", len(runs), runs[0].ID)
	}
}

// TestTraceServedAfterRestart: a traced job's Chrome trace outlives the
// server that ran it. A fresh manager on the same store has no flight
// recorder for the finished job, so GET /trace must serve the stored
// trace.json, as GET /report serves report.json.
func TestTraceServedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, Options{})
	spec := smallSpec(2)
	spec.Trace = true
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	drainManager(t, m)

	m2 := newTestManager(t, dir, Options{})
	defer drainManager(t, m2)
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewAPI(m2).Routes())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + RunID(job.ID) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace after restart: status %d (%s), want 200", resp.StatusCode, body)
	}
	if _, err := trace.ValidateChrome(body); err != nil {
		t.Errorf("trace after restart: %v", err)
	}
}

// TestDiscoverRunsSkipsRetiredKeys: a run directory persisted with the
// chunked exchange's knobs no longer decodes, so discovery skips it rather
// than resume it under a spec that means something else.
func TestDiscoverRunsSkipsRetiredKeys(t *testing.T) {
	for key, val := range map[string]any{"overlap": true, "pipeline_chunks": 2} {
		t.Run(key, func(t *testing.T) {
			dir := t.TempDir()
			m := newTestManager(t, dir, Options{})
			job, err := m.Submit(smallSpec(2))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, job, StateDone)
			drainManager(t, m)
			rs, _ := NewRunStore(dir)
			path := filepath.Join(rs.Dir(job.ID), "spec.json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var spec map[string]any
			if err := json.Unmarshal(raw, &spec); err != nil {
				t.Fatal(err)
			}
			spec[key] = val
			if raw, err = json.Marshal(spec); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if runs, err := DiscoverRuns(dir); err != nil || len(runs) != 0 {
				t.Errorf("discovered %d runs (err %v) from a spec with %q, want none", len(runs), err, key)
			}
		})
	}
}

// TestJobRecordWritesLeaveNoTemp: a status write replaces status.json whole
// and leaves no temp file; one whose rename fails (a directory holds the
// name) is an error and leaves no temp file either.
func TestJobRecordWritesLeaveNoTemp(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Create(0, smallSpec(2), Status{State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteStatus(0, Status{State: StateRunning, Step: 3}); err != nil {
		t.Fatal(err)
	}
	if st, err := rs.LoadStatus(0); err != nil || st.State != StateRunning || st.Step != 3 {
		t.Fatalf("status after rewrite: %+v, %v", st, err)
	}
	if err := os.MkdirAll(filepath.Join(rs.Dir(1), "status.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteStatus(1, Status{State: StateRunning}); err == nil {
		t.Error("status write over a directory succeeded")
	}
	for id, want := range [][]string{{"spec.json", "status.json"}, {"status.json"}} {
		ents, err := os.ReadDir(rs.Dir(id))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range ents {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Errorf("run %d holds %v, want %v", id, got, want)
		}
	}
}
