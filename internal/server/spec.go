// Package server is the DNS-as-a-service layer: a long-running multi-run
// simulation service. Jobs arrive as JSON specs over HTTP, wait in a
// bounded FIFO queue, run through the core workload registry on the
// in-process rank transport, checkpoint into a durable per-run store, and
// stream live telemetry, status lines and field-plane frames to many
// concurrent watchers. A server that crashes (or is SIGKILLed) between
// steps rediscovers its interrupted runs from their on-disk manifests at
// the next start and auto-resumes them bit-identically via the ckpt
// store's re-sharded resume.
//
// Four layers, one file each: the job manager (manager.go), the run store
// (store.go), the broadcast hub behind the streaming endpoints (hub.go),
// and the HTTP API (api.go, server.go).
package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"channeldns/internal/core"
	"channeldns/internal/par"
	"channeldns/internal/telemetry"
	"channeldns/internal/trace"
)

// JobSpec is the serializable description of one simulation job: the
// workload name plus the core.Config fields a run is reconstructed from.
// It is the submit payload of POST /v1/jobs and is persisted verbatim as
// spec.json in the run directory, so a restarted server rebuilds exactly
// the job that was interrupted. Zero values select the defaults of
// withDefaults, the one default table: cmd/dns binds its flags to a JobSpec
// and reads their defaults from the same table (Defaults), so a job and a
// dns run given the same values run the same configuration.
type JobSpec struct {
	// Workload names a registered scenario ("channel", "isotropic",
	// "scalar", ...); "" selects "channel".
	Workload string `json:"workload,omitempty"`
	// Grid: Fourier modes in x and z (even), B-spline basis size in y
	// (Fourier modes in y for the isotropic workload).
	Nx int `json:"nx"`
	Ny int `json:"ny"`
	Nz int `json:"nz"`
	// Steps is the target number of RK3 steps; a resumed job continues
	// from its checkpointed step toward the same target.
	Steps int `json:"steps"`
	// ReTau is the friction Reynolds number (0 selects 180).
	ReTau float64 `json:"re_tau,omitempty"`
	// Dt is the time step (0 selects 5e-4).
	Dt float64 `json:"dt,omitempty"`
	// TargetCFL > 0 enables adaptive stepping toward that CFL number
	// (cmd/dns's -steps loop uses 0.8); 0 keeps Dt fixed, which also makes
	// an interrupted job's resumed trajectory bit-identical to an
	// uninterrupted one.
	TargetCFL float64 `json:"target_cfl,omitempty"`
	// Process grid (PA*PB in-process ranks) and per-rank worker threads
	// (0 selects 1).
	PA      int `json:"pa,omitempty"`
	PB      int `json:"pb,omitempty"`
	Threads int `json:"threads,omitempty"`
	// Initial condition: perturbation amplitude (0 selects 0.3) and seed
	// (0 selects 1).
	Perturb float64 `json:"perturb,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Physics knobs forwarded to core.Config.
	Ly      float64 `json:"ly,omitempty"`
	Prandtl float64 `json:"prandtl,omitempty"`
	// Form is the convective-term form: "divergence" (default),
	// "convective" or "skew".
	Form string `json:"form,omitempty"`
	// CkptEvery is the rolling-checkpoint cadence in steps (0 selects
	// every 10 steps — a service job is always crash-resumable). A final
	// checkpoint is written unconditionally, as is one before any
	// cancel/pause/drain stop. CkptKeep is the store retention (0 selects
	// 3; negative keeps everything).
	CkptEvery int `json:"ckpt_every,omitempty"`
	CkptKeep  int `json:"ckpt_keep,omitempty"`
	// StatusEvery is the stream cadence in steps for status lines and
	// telemetry deltas (0 selects every step). PlaneEvery is the cadence
	// of live field-plane frames (0 selects every 5 steps; planes are
	// rendered only for single-rank channel-based workloads).
	StatusEvery int `json:"status_every,omitempty"`
	PlaneEvery  int `json:"plane_every,omitempty"`
	// Trace attaches a flight recorder; the Chrome trace lands as
	// trace.json in the run directory and is served live on the run's
	// /trace endpoint.
	Trace bool `json:"trace,omitempty"`
	// StepDelayMs throttles the run by sleeping between steps — a pacing
	// knob for demos and for drills that must observe a job mid-flight
	// (the serve-smoke crash test). 0 runs flat out.
	StepDelayMs int `json:"step_delay_ms,omitempty"`
}

// Defaults returns the spec whose every field holds its default: the value
// a zero field resolves to. cmd/dns and cmd/bench read their run defaults
// from it.
func Defaults() JobSpec { return JobSpec{}.withDefaults() }

// withDefaults returns the spec with zero values resolved, the form the
// run loop and the persisted spec.json use.
func (sp JobSpec) withDefaults() JobSpec {
	if sp.Workload == "" {
		sp.Workload = core.WorkloadChannel
	}
	if sp.ReTau == 0 {
		sp.ReTau = 180
	}
	if sp.Dt == 0 {
		sp.Dt = 5e-4
	}
	if sp.PA == 0 {
		sp.PA = 1
	}
	if sp.PB == 0 {
		sp.PB = 1
	}
	if sp.Threads == 0 {
		sp.Threads = 1
	}
	if sp.Perturb == 0 {
		sp.Perturb = 0.3
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Form == "" {
		sp.Form = core.FormDivergence.String()
	}
	if sp.CkptEvery == 0 {
		sp.CkptEvery = 10
	}
	if sp.CkptKeep == 0 {
		sp.CkptKeep = 3
	}
	if sp.StatusEvery == 0 {
		sp.StatusEvery = 1
	}
	if sp.PlaneEvery == 0 {
		sp.PlaneEvery = 5
	}
	return sp
}

// Validate rejects specs that cannot run, so submission fails with 400
// instead of burning a queue slot on a doomed job — or, for a grid or process
// grid the solver cannot carry, taking the server down with it. The run
// fields are checked here; everything that shapes the workload is
// core.Config's to judge, the same validation the constructors run. Steps is
// not: a job's target must be positive (Submit checks it), while cmd/dns
// counts its steps from wherever a run starts and may take none.
func (sp JobSpec) Validate() error {
	d := sp.withDefaults()
	if _, err := core.ParseForm(d.Form); err != nil {
		return err
	}
	if d.Threads < 0 {
		return fmt.Errorf("threads %d: must be non-negative", d.Threads)
	}
	if d.StepDelayMs < 0 {
		return fmt.Errorf("step_delay_ms %d: must be non-negative", d.StepDelayMs)
	}
	return sp.Config(nil, nil, nil).Validate()
}

// World returns the rank count of the spec's process grid.
func (sp JobSpec) World() int { return sp.withDefaults().PA * sp.withDefaults().PB }

// Workers returns the per-rank worker count the spec runs with.
func (sp JobSpec) Workers() int { return sp.withDefaults().Threads }

// Config builds the core.Config the job runs with. The spec must have
// passed Validate; reg/trc attach per-run instrumentation (the registry is
// required — the service always observes its runs; trc may be nil).
func (sp JobSpec) Config(pool *par.Pool, reg *telemetry.Registry, trc *trace.Trace) core.Config {
	d := sp.withDefaults()
	form, _ := core.ParseForm(d.Form)
	return core.Config{
		Workload: d.Workload,
		Nx:       d.Nx, Ny: d.Ny, Nz: d.Nz,
		ReTau: d.ReTau, Dt: d.Dt, Forcing: 1,
		Ly: d.Ly, Prandtl: d.Prandtl,
		PA: d.PA, PB: d.PB, Pool: pool,
		Nonlinear: form,
		Telemetry: reg, Trace: trc,
	}
}

// ConfigMap is the spec rendered as a BENCH report config block.
func (sp JobSpec) ConfigMap() map[string]string {
	d := sp.withDefaults()
	return map[string]string{
		"workload": d.Workload,
		"nx":       fmt.Sprint(d.Nx), "ny": fmt.Sprint(d.Ny), "nz": fmt.Sprint(d.Nz),
		"re_tau": fmt.Sprint(d.ReTau), "dt": fmt.Sprint(d.Dt),
		"steps": fmt.Sprint(d.Steps), "pa": fmt.Sprint(d.PA), "pb": fmt.Sprint(d.PB),
		"threads": fmt.Sprint(d.Threads), "form": d.Form,
		"transport": "chan",
	}
}

// decodeSpec parses a JSON job spec strictly: unknown fields are submit
// errors, not silent typo sinks (a mistyped "ckpt_evry" must not quietly
// run with the default cadence).
func decodeSpec(data []byte) (JobSpec, error) {
	var sp JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return JobSpec{}, fmt.Errorf("parsing job spec: %w", err)
	}
	return sp, nil
}
