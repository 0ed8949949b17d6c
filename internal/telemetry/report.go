package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"channeldns/internal/schedule"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump it when a field
// changes meaning; additive changes keep the version.
const SchemaVersion = "channeldns/bench/v1"

// Host describes the machine a report was produced on.
type Host struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// Report is the machine-readable run artifact cmd/bench and the solver
// front ends emit (BENCH_<table>.json): the cross-rank phase breakdown, the
// communication accounting, allocation counters, a config fingerprint and
// the source revision, so a perf trajectory can be reconstructed from
// committed artifacts alone. Field order is fixed by this struct and map
// keys are sorted by encoding/json, so the same report data always
// encodes to the same bytes (Encode performs the deterministic encoding).
type Report struct {
	Schema string `json:"schema"`
	// Table names the paper table (or other experiment) the run
	// reproduces: "table9", "table5", ...
	Table string `json:"table"`
	// GitRev is the source revision the binary was built from ("unknown"
	// outside a stamped build or git checkout).
	GitRev    string `json:"git_rev"`
	GoVersion string `json:"go_version"`
	Host      Host   `json:"host"`
	// Config fingerprints the run: grid extents, process grid, thread
	// count, physics knobs — whatever the tool deems identity-defining.
	Config map[string]string `json:"config"`
	Ranks  int               `json:"ranks"`
	// WallSeconds is the measured wall clock of the instrumented section
	// (for timestep runs: total time in StepOnce).
	WallSeconds float64 `json:"wall_seconds"`
	// PhaseSecondsSum restates the sum of mean-rank phase seconds; for a
	// fully instrumented serial run it matches WallSeconds to within the
	// repo's 10% acceptance bound.
	PhaseSecondsSum float64      `json:"phase_seconds_sum"`
	Steps           int64        `json:"steps,omitempty"`
	Phases          []PhaseStats `json:"phases"`
	Comm            []CommStats  `json:"comm"`
	Flops           int64        `json:"flops,omitempty"`
	// GFlopsSustained = Flops / WallSeconds / 1e9 (the paper's §5.3
	// sustained-rate accounting), when both are known.
	GFlopsSustained float64 `json:"gflops_sustained,omitempty"`
	// AllocsPerStep is the process-wide heap-object count per step measured
	// around the run (serial runs only; see perf.ReadAllocs).
	AllocsPerStep float64 `json:"allocs_per_step,omitempty"`
	// Metrics carries table-specific scalars (speedups, ratios, model
	// values) keyed by stable snake_case names.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Trace carries the critical-path digest of a traced run (absent when
	// tracing was off). Populated by trace.Summarize.
	Trace *TraceSummary `json:"trace,omitempty"`
	// Schedule is the declarative op list of the program the run executed
	// (one RK3 timestep or one Table 5/6 sub-cycle), emitted by the
	// producing tool from the same objects that ran — core.Config.Schedule,
	// pencil.Decomp.CycleSchedule, parfft.Kernel.Schedule. bench-validate
	// -model interprets it under the machine performance model;
	// CheckScheduleConsistency cross-checks its traffic against the
	// measured comm table. Absent from reports of tools without a single
	// underlying program.
	Schedule *schedule.Schedule `json:"schedule,omitempty"`
	// Wire carries the transport-level counters of a run over a wire
	// transport (frames, bytes, queue depths per rank — see WireSummary).
	// Absent from in-process runs, where no wire exists.
	Wire *WireSummary `json:"wire,omitempty"`
}

// TraceSummary is the critical-path digest of a flight-recorder trace:
// per step, which rank's phase work gated completion, and how much slack
// the other ranks had. It lives in the telemetry package (not
// internal/trace) so Report stays free of a trace dependency while trace
// depends on telemetry for the phase vocabulary.
type TraceSummary struct {
	// Events and Dropped count recorded and ring-wrap-overwritten events
	// across all ranks.
	Events  int64 `json:"events"`
	Dropped int64 `json:"dropped,omitempty"`
	// Steps holds one straggler record per step observed in the trace,
	// ascending by step.
	Steps []StragglerStep `json:"steps"`
	// RankSlackSeconds is each rank's total slack over the traced steps:
	// the busy time of the gating rank minus this rank's, summed. The
	// gating ranks' contributions are zero by construction; large values
	// mark ranks that habitually wait (the paper's transpose-imbalance
	// signature).
	RankSlackSeconds []float64 `json:"rank_slack_seconds,omitempty"`
}

// StragglerStep names the critical path of one step: the rank whose phase
// work finished last and the phase that set it apart from the pack.
type StragglerStep struct {
	Step int64 `json:"step"`
	// GatingRank is the rank with the most phase-busy time in this step.
	GatingRank int `json:"gating_rank"`
	// GatingPhase is the phase on which the gating rank lost the most time
	// relative to the cross-rank mean.
	GatingPhase string `json:"gating_phase"`
	// GatingSeconds is the gating rank's busy time in the step.
	GatingSeconds float64 `json:"gating_seconds"`
	// MaxSlackSeconds is the largest per-rank slack in the step (gating
	// busy minus the least-busy rank's) — 0 for a perfectly balanced step.
	MaxSlackSeconds float64 `json:"max_slack_seconds"`
	// ExposedWireSeconds is the transpose wire time the step's ranks
	// waited on, summed across ranks: the exchange windows between pack and
	// unpack.
	ExposedWireSeconds float64 `json:"exposed_wire_seconds,omitempty"`
}

// NewReport assembles a report from a registry snapshot and wire block
// plus the ambient build metadata. config may be nil; it is stored as an empty (non-nil)
// map so the artifact always carries the field.
func NewReport(table string, reg *Registry, config map[string]string) *Report {
	rep := NewReportFromSnapshot(table, reg.Snapshot(), config)
	rep.Wire = reg.Wire()
	return rep
}

// NewReportFromSnapshot is NewReport for an already-taken snapshot.
func NewReportFromSnapshot(table string, snap Snapshot, config map[string]string) *Report {
	if config == nil {
		config = map[string]string{}
	}
	r := &Report{
		Schema:          SchemaVersion,
		Table:           table,
		GitRev:          GitRev(),
		GoVersion:       runtime.Version(),
		Host:            Host{OS: runtime.GOOS, Arch: runtime.GOARCH, CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)},
		Config:          config,
		Ranks:           snap.Ranks,
		WallSeconds:     snap.MeanStepSeconds,
		PhaseSecondsSum: snap.PhaseSecondsSum(),
		Steps:           snap.Steps,
		Phases:          snap.Phases,
		Comm:            snap.Comm,
		Flops:           snap.Flops,
	}
	if r.WallSeconds > 0 && r.Flops > 0 {
		// Flops is summed across ranks and steps; rate over the mean rank
		// wall clock, divided across ranks (every rank counts the full
		// step's flops in the serial-accounting model).
		r.GFlopsSustained = float64(r.Flops) / r.WallSeconds / 1e9 / float64(max(1, r.Ranks))
	}
	return r
}

// Validate checks the structural invariants the bench-smoke CI target
// (and the committed artifacts) rely on. It returns the first violation.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("schema %q, want %q", r.Schema, SchemaVersion)
	}
	if r.Table == "" {
		return fmt.Errorf("empty table name")
	}
	if r.GitRev == "" {
		return fmt.Errorf("empty git_rev (use \"unknown\" when unstamped)")
	}
	if r.GoVersion == "" {
		return fmt.Errorf("empty go_version")
	}
	if r.Config == nil {
		return fmt.Errorf("missing config fingerprint")
	}
	if r.Ranks < 0 {
		return fmt.Errorf("negative ranks %d", r.Ranks)
	}
	if r.WallSeconds < 0 || r.PhaseSecondsSum < 0 {
		return fmt.Errorf("negative wall accounting")
	}
	seen := map[string]bool{}
	for _, p := range r.Phases {
		if _, ok := PhaseFromString(p.Phase); !ok {
			return fmt.Errorf("unknown phase %q", p.Phase)
		}
		if seen[p.Phase] {
			return fmt.Errorf("duplicate phase %q", p.Phase)
		}
		seen[p.Phase] = true
		if p.Calls <= 0 {
			return fmt.Errorf("phase %q: %d calls (zero-call phases must be omitted)", p.Phase, p.Calls)
		}
		if p.MinRankSeconds < 0 || p.MinRankSeconds > p.MeanRankSeconds || p.MeanRankSeconds > p.MaxRankSeconds {
			return fmt.Errorf("phase %q: min/mean/max out of order (%g/%g/%g)",
				p.Phase, p.MinRankSeconds, p.MeanRankSeconds, p.MaxRankSeconds)
		}
		if p.TotalSeconds < 0 {
			return fmt.Errorf("phase %q: negative total", p.Phase)
		}
		if p.Imbalance < 0 {
			return fmt.Errorf("phase %q: negative imbalance", p.Phase)
		}
		if p.P50Seconds < 0 || p.P99Seconds < p.P50Seconds {
			return fmt.Errorf("phase %q: quantiles out of order (p50=%g p99=%g)",
				p.Phase, p.P50Seconds, p.P99Seconds)
		}
	}
	seenOp := map[string]bool{}
	for _, cst := range r.Comm {
		if cst.Op == "" || seenOp[cst.Op] {
			return fmt.Errorf("bad or duplicate comm op %q", cst.Op)
		}
		seenOp[cst.Op] = true
		if cst.Calls <= 0 || cst.Messages < 0 || cst.Bytes < 0 {
			return fmt.Errorf("comm %q: bad counts (calls=%d messages=%d bytes=%d)",
				cst.Op, cst.Calls, cst.Messages, cst.Bytes)
		}
	}
	for k, v := range r.Metrics {
		if k == "" {
			return fmt.Errorf("empty metric name")
		}
		if v != v { // NaN poisons downstream JSON tooling
			return fmt.Errorf("metric %q is NaN", k)
		}
	}
	if t := r.Trace; t != nil {
		if t.Events < 0 || t.Dropped < 0 {
			return fmt.Errorf("trace: negative event counts (events=%d dropped=%d)", t.Events, t.Dropped)
		}
		var prev int64 = -1 << 62
		for _, s := range t.Steps {
			if s.Step <= prev {
				return fmt.Errorf("trace: steps not ascending at step %d", s.Step)
			}
			prev = s.Step
			if s.GatingRank < 0 {
				return fmt.Errorf("trace: step %d: negative gating rank", s.Step)
			}
			if _, ok := PhaseFromString(s.GatingPhase); !ok {
				return fmt.Errorf("trace: step %d: unknown gating phase %q", s.Step, s.GatingPhase)
			}
			if s.GatingSeconds < 0 || s.MaxSlackSeconds < 0 {
				return fmt.Errorf("trace: step %d: negative seconds", s.Step)
			}
			if s.ExposedWireSeconds < 0 {
				return fmt.Errorf("trace: step %d: negative wire attribution", s.Step)
			}
			if s.MaxSlackSeconds > s.GatingSeconds {
				return fmt.Errorf("trace: step %d: slack %g exceeds gating busy %g",
					s.Step, s.MaxSlackSeconds, s.GatingSeconds)
			}
		}
		for i, v := range t.RankSlackSeconds {
			if v < 0 || v != v {
				return fmt.Errorf("trace: rank %d: bad slack %g", i, v)
			}
		}
	}
	if err := r.validateSchedule(); err != nil {
		return err
	}
	if err := r.validateWire(); err != nil {
		return err
	}
	return nil
}

// scheduleOpKinds is the closed op vocabulary a schedule block may use.
var scheduleOpKinds = map[string]bool{
	schedule.OpTranspose: true, schedule.OpReorder: true, schedule.OpFFT: true,
	schedule.OpSolve: true, schedule.OpCollective: true,
}

var scheduleDirs = map[string]bool{
	schedule.DirYtoZ: true, schedule.DirZtoY: true,
	schedule.DirZtoX: true, schedule.DirXtoZ: true,
}

// validateSchedule checks the structural invariants of an attached schedule
// block: a non-empty op list, canonical phase names, the closed op-kind and
// direction vocabularies, and sane sizes.
func (r *Report) validateSchedule() error {
	s := r.Schedule
	if s == nil {
		return nil
	}
	if s.Name == "" {
		return fmt.Errorf("schedule: empty name")
	}
	if s.Ranks < 1 || s.PA < 1 || s.PB < 1 || s.PA*s.PB != s.Ranks {
		return fmt.Errorf("schedule: bad process grid %dx%d (ranks=%d)", s.PA, s.PB, s.Ranks)
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("schedule: empty op list")
	}
	for i, op := range s.Ops {
		if !scheduleOpKinds[op.Kind] {
			return fmt.Errorf("schedule: op %d: unknown kind %q", i, op.Kind)
		}
		if _, ok := PhaseFromString(op.Phase); !ok {
			return fmt.Errorf("schedule: op %d (%s): unknown phase %q", i, op.Kind, op.Phase)
		}
		if op.BytesPerRank < 0 || op.Flops < 0 || op.Passes < 0 {
			return fmt.Errorf("schedule: op %d (%s): negative size", i, op.Kind)
		}
		if math.IsNaN(op.BytesPerRank) || math.IsNaN(op.Flops) {
			return fmt.Errorf("schedule: op %d (%s): NaN size", i, op.Kind)
		}
		switch op.Kind {
		case schedule.OpTranspose, schedule.OpReorder:
			if !scheduleDirs[op.Dir] {
				return fmt.Errorf("schedule: op %d (%s): unknown direction %q", i, op.Kind, op.Dir)
			}
			if op.CommSize < 1 {
				return fmt.Errorf("schedule: op %d (%s %s): comm size %d", i, op.Kind, op.Dir, op.CommSize)
			}
		}
		// One message per remote peer.
		if op.Kind == schedule.OpTranspose && op.Messages != op.CommSize-1 {
			return fmt.Errorf("schedule: op %d (%s %s): %d messages for comm size %d",
				i, op.Kind, op.Dir, op.Messages, op.CommSize)
		}
	}
	return nil
}

// CheckScheduleConsistency cross-checks the schedule block against the
// measured communication table. Each wire transpose moves one packed send
// image plus one unpacked receive image per rank — 2x the schedule op's
// bytes_per_rank — and Messages point-to-point messages, so for every
// direction the schedule declares, one execution of the whole program
// performs all of that direction's ops in order. With opsPerExec schedule
// ops in a direction, moving bytesPerExec payload and msgsPerExec messages
// between them, the measured comm channel must satisfy
//
//	calls    == executions * ops_per_exec    (exactly)
//	bytes    == executions * 2 * bytes_per_exec   (to 1e-6 relative)
//	messages == executions * msgs_per_exec   (exactly)
//
// independent of how many times the program ran. This covers programs
// whose executions of one direction vary in size (a substep that runs two
// passes of different shapes); for uniform programs it reduces to the
// per-call invariant. When the report carries
// flop accounting driven by the same schedule (timestep runs), the total is
// checked against steps * schedule.TotalFlops to per-rank integer-truncation
// slack. A nil schedule passes: the check gates consistency, not presence.
func (r *Report) CheckScheduleConsistency() error {
	s := r.Schedule
	if s == nil {
		return nil
	}
	type dirShape struct {
		ops   int64   // schedule ops of this direction per execution
		bytes float64 // per-rank payload of one execution, summed over its ops
		msgs  int64   // messages of one execution, summed over its ops
	}
	shapes := map[string]dirShape{}
	for _, op := range s.Ops {
		if op.Kind != schedule.OpTranspose {
			continue
		}
		sh := shapes[op.Dir]
		sh.ops++
		sh.bytes += op.BytesPerRank
		sh.msgs += int64(op.Messages)
		shapes[op.Dir] = sh
	}
	for _, c := range r.Comm {
		sh, ok := shapes[c.Op]
		if !ok {
			continue // collectives and channels outside the schedule
		}
		if c.Calls%sh.ops != 0 {
			return fmt.Errorf("schedule: %s: measured %d calls, schedule declares %d ops per execution",
				c.Op, c.Calls, sh.ops)
		}
		execs := c.Calls / sh.ops
		wantBytes := 2 * sh.bytes * float64(execs)
		if diff := math.Abs(float64(c.Bytes) - wantBytes); diff > 1e-6*wantBytes {
			return fmt.Errorf("schedule: %s: measured %d bytes over %d executions, schedule predicts %.0f",
				c.Op, c.Bytes, execs, wantBytes)
		}
		if want := execs * sh.msgs; c.Messages != want {
			return fmt.Errorf("schedule: %s: measured %d messages over %d executions, schedule predicts %d",
				c.Op, c.Messages, execs, want)
		}
	}
	if r.Flops > 0 && r.Steps > 0 && r.Ranks > 0 {
		if tf := s.TotalFlops(); tf > 0 {
			// Steps and Flops are both summed across ranks; each rank credits
			// int64(total/ranks) per step, so the whole-problem total appears
			// once per ranks rank-steps, with up to 1 flop of truncation per
			// credit.
			want := tf * float64(r.Steps) / float64(r.Ranks)
			slack := 1e-6*want + float64(r.Steps)
			if diff := math.Abs(float64(r.Flops) - want); diff > slack {
				return fmt.Errorf("schedule: %d flops over %d rank-steps on %d ranks, schedule predicts %.0f",
					r.Flops, r.Steps, r.Ranks, want)
			}
		}
	}
	return nil
}

// CheckCheckpointIO cross-checks the checkpoint-I/O accounting: every span
// internal/ckpt opens around a shard or manifest transfer credits exactly
// one comm record on the checkpoint channel, so a report that carries the
// checkpoint phase must carry the matching comm channel with equal call
// counts and a positive byte total (and vice versa). Reports of runs that
// never checkpointed carry neither and pass.
func (r *Report) CheckCheckpointIO() error {
	name := schedule.PhaseCheckpoint.String()
	var ph *PhaseStats
	for i := range r.Phases {
		if r.Phases[i].Phase == name {
			ph = &r.Phases[i]
		}
	}
	var cm *CommStats
	for i := range r.Comm {
		if r.Comm[i].Op == name {
			cm = &r.Comm[i]
		}
	}
	switch {
	case ph == nil && cm == nil:
		return nil
	case ph == nil:
		return fmt.Errorf("checkpoint: comm channel present without the %s phase", name)
	case cm == nil:
		return fmt.Errorf("checkpoint: %s phase present without its comm channel", name)
	}
	if cm.Bytes <= 0 {
		return fmt.Errorf("checkpoint: %d spans moved %d bytes", ph.Calls, cm.Bytes)
	}
	if cm.Calls != ph.Calls {
		return fmt.Errorf("checkpoint: %d comm records for %d spans (want 1:1)", cm.Calls, ph.Calls)
	}
	return nil
}

// ValidateJSON parses raw as a Report and validates it.
func ValidateJSON(raw []byte) (*Report, error) {
	var r Report
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Encode writes the canonical (deterministic, indented) JSON form.
func (r *Report) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile validates the report and writes its canonical encoding,
// creating parent directories as needed.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("telemetry: refusing to write invalid report %s: %w", path, err)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// GitRev returns the source revision: the build-info VCS stamp when the
// binary carries one, else the checked-out HEAD found by walking up from
// the working directory, else "unknown". `go run` does not stamp VCS
// info, which is why the .git fallback exists.
func GitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if rev := gitHead(filepath.Join(dir, ".git")); rev != "" {
			return rev
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// gitHead resolves HEAD in a .git directory without invoking git.
func gitHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	s := strings.TrimSpace(string(head))
	if !strings.HasPrefix(s, "ref: ") {
		return s // detached HEAD: the hash itself
	}
	ref := strings.TrimPrefix(s, "ref: ")
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	// Packed refs fallback.
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasSuffix(line, " "+ref) {
				return strings.Fields(line)[0]
			}
		}
	}
	return ""
}
