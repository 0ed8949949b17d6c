// Package schedule is the declarative IR of the paper's timestep: one RK3
// step (or a Table 5/6 sub-cycle) expressed as an ordered list of typed
// operations — global transposes, batched FFT stages, on-node reorders,
// banded Navier-Stokes solves, collectives. The same schedule is interpreted
// twice: the live solver executes it (internal/core, internal/parfft,
// internal/pencil emit exactly these operations in this order), and the
// machine model (internal/machine) walks it applying per-platform cost
// functions to reproduce Tables 5/6/9/10/11. Because both interpreters read
// one program, the modeled breakdown and the measured breakdown describe the
// same computation by construction.
//
// The package is also the single definition site of the phase taxonomy: the
// snake_case phase names that appear in telemetry reports, traces and model
// breakdowns are declared here and re-exported by internal/telemetry. It is
// a leaf package (stdlib only) so that telemetry, pencil, parfft, core,
// machine and the cmd tools can all import it without cycles.
package schedule

import "math"

// Phase partitions a timestep's wall clock the way the paper's Tables 5-11
// do. The live code opens telemetry regions around leaf operations labeled
// with these phases; every schedule op carries the phase its cost is
// attributed to, so model and measurement share one vocabulary.
type Phase uint8

// The phase taxonomy. README "Observability" maps each phase to the
// paper-table column it reproduces.
const (
	// PhaseNonlinear: physical-space work of §2.3 — the fused inverse-x /
	// pointwise-product / forward-x block plus the spectral right-hand-side
	// assembly. Paper column "N-S advance" (with ViscousSolve and Pressure).
	PhaseNonlinear Phase = iota
	// PhaseFFTForward: batched forward (physical -> spectral) z transforms
	// with 3/2-rule truncation. Paper column "FFT".
	PhaseFFTForward
	// PhaseFFTInverse: batched inverse (spectral -> physical) z transforms
	// with 3/2-rule padding. Paper column "FFT".
	PhaseFFTInverse
	// PhaseTransposeAB: the four global transposes (alltoallv on the CommA
	// and CommB sub-communicators, pack and unpack included, §4.3). Paper
	// column "Transpose".
	PhaseTransposeAB
	// PhaseViscousSolve: the implicit RK3 substep advance — per-wavenumber
	// banded solves for omega_y-hat and phi-hat plus the influence-matrix
	// correction (Eq. 3-4). Paper column "N-S advance".
	PhaseViscousSolve
	// PhasePressure: velocity recovery from (v, omega_y) through continuity
	// — the role the pressure solve plays in primitive-variable codes.
	// Paper column "N-S advance".
	PhasePressure
	// PhaseCollective: barriers, reductions, broadcasts and gathers outside
	// the transpose path (CFL reductions, statistics collectives).
	PhaseCollective
	// PhaseCheckpoint: checkpoint/restart I/O — shard encode + write +
	// fsync + rename and shard read + verify + decode (internal/ckpt).
	// Not part of the RK3 step proper, so it never appears in a schedule's
	// op list; it exists so restart traffic is first-class in reports.
	PhaseCheckpoint
	// NumPhases is the number of phases (array extent, not a phase).
	NumPhases
)

// PhaseNames holds the canonical snake_case report names, indexed by Phase.
var PhaseNames = [NumPhases]string{
	"nonlinear", "fft_forward", "fft_inverse", "transpose",
	"viscous_solve", "pressure", "collective", "checkpoint_io",
}

// String returns the snake_case phase name used in reports.
func (p Phase) String() string {
	if p < NumPhases {
		return PhaseNames[p]
	}
	return "unknown"
}

// PhaseFromString inverts String; ok is false for unknown names.
func PhaseFromString(s string) (Phase, bool) {
	for i, n := range PhaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// The four global transpose directions, named as the paper labels them.
// These are both the Op.Dir values and the telemetry comm-channel names.
const (
	DirYtoZ = "YtoZ" // y-pencils -> z-pencils (CommB)
	DirZtoY = "ZtoY" // z-pencils -> y-pencils (CommB)
	DirZtoX = "ZtoX" // z-pencils -> x-pencils (CommA)
	DirXtoZ = "XtoZ" // x-pencils -> z-pencils (CommA)
)

// Op kinds: the operation vocabulary of the IR. The machine model buckets
// costs by kind into the paper's table columns (transpose+reorder ->
// "Transpose", fft -> "FFT", solve -> "N-S advance"), while Op.Phase carries
// the live code's attribution for phase-by-phase model-vs-measured
// comparison.
const (
	OpTranspose  = "transpose"  // alltoallv wire exchange on CommA or CommB
	OpReorder    = "reorder"    // on-node pack/unpack memory passes
	OpFFT        = "fft"        // one batched 1-D FFT stage
	OpSolve      = "solve"      // per-wavenumber banded N-S advance
	OpCollective = "collective" // reduction/broadcast outside the transposes
)

// OpOverlap named the pipelined transpose fused with the FFT stage it hid.
// No builder emits it, no report validates with it and the machine model
// does not price it: the transposes are blocking, as in the paper. It stays
// only because the benchmark module's assemble.go still names it when it
// sums a schedule's wire bytes; it goes with that caller (ROADMAP item 3b).
const OpOverlap = "overlap"

// Op is one typed operation of a schedule. Fields not meaningful for a kind
// are zero and omitted from JSON. Sizes are global (whole problem) per
// executed instance; per-rank figures are the *_per_rank fields.
type Op struct {
	Kind string `json:"kind"`
	// Phase is the canonical taxonomy name (PhaseNames) the live code
	// attributes this operation's wall clock to.
	Phase string `json:"phase"`
	// Sub is the 1-based RK3 substep for timestep schedules, 0 for cycles.
	Sub int `json:"sub,omitempty"`

	// Transpose / Reorder fields.
	Dir      string `json:"dir,omitempty"`       // DirYtoZ, ...
	Comm     string `json:"comm,omitempty"`      // "A" or "B"
	CommSize int    `json:"comm_size,omitempty"` // ranks in the sub-communicator
	Fields   int    `json:"fields,omitempty"`    // fields moved/transformed together
	// BytesPerRank is the payload each rank contributes: one packed local
	// image of the transported fields (16 bytes per complex mode).
	BytesPerRank float64 `json:"bytes_per_rank,omitempty"`
	// Messages is the point-to-point message count per rank: CommSize-1,
	// one per remote peer.
	Messages int `json:"messages,omitempty"`
	// Passes counts pack/unpack memory passes over the payload (reorder).
	Passes float64 `json:"passes,omitempty"`

	// FFT fields.
	Axis    string `json:"axis,omitempty"` // "x" or "z"
	Inverse bool   `json:"inverse,omitempty"`
	Real    bool   `json:"real,omitempty"`   // real<->half-complex transform
	Padded  bool   `json:"padded,omitempty"` // 3/2-rule dealiasing grid
	Lines   int    `json:"lines,omitempty"`  // global 1-D line count
	Points  int    `json:"points,omitempty"` // points per line

	// Solve fields.
	Systems   int `json:"systems,omitempty"`   // independent banded systems
	Bandwidth int `json:"bandwidth,omitempty"` // band half-width (B-spline order)

	// Flops is the global floating-point work of this op (0 for pure
	// data-movement ops).
	Flops float64 `json:"flops,omitempty"`
}

// Schedule is one program: the ordered ops of a timestep or sub-cycle plus
// the problem and process-grid identity they were built from.
type Schedule struct {
	// Name identifies the program: "timestep", "transpose_cycle",
	// "fft_cycle".
	Name string `json:"name"`
	// Grid extents and the one-sided x mode count actually carried.
	Nx  int `json:"nx"`
	Ny  int `json:"ny"`
	Nz  int `json:"nz"`
	NKx int `json:"nkx"`
	// Process grid: CommA spans PA ranks, CommB spans PB ranks.
	PA    int `json:"pa"`
	PB    int `json:"pb"`
	Ranks int `json:"ranks"`
	// ResidentBytesPerRank is the steady working-set per rank (field +
	// communication scratch), used for the model's memory-feasibility check.
	ResidentBytesPerRank float64 `json:"resident_bytes_per_rank,omitempty"`
	Ops                  []Op    `json:"ops"`
}

// TotalFlops sums the floating-point work over all ops.
func (s *Schedule) TotalFlops() float64 {
	var f float64
	for _, op := range s.Ops {
		f += op.Flops
	}
	return f
}

// FFTFlops returns the flop count of one complex FFT of length n
// (5 n log2 n) or half that for a real transform — the accounting every
// flop figure in this repo (machine model, telemetry, §5.3 aggregate rates)
// is built on.
func FFTFlops(n int, realT bool) float64 {
	f := 5 * float64(n) * math.Log2(float64(n))
	if realT {
		f /= 2
	}
	return f
}

// NSFlopsPerPoint is the calibrated operation count of the Navier-Stokes
// time advance per spectral point (solves, matvecs, influence correction).
const NSFlopsPerPoint = 2000.0
