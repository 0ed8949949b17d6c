package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"channeldns/internal/ckpt"
	"channeldns/internal/mpi"
	"channeldns/internal/par"
)

// bitExact reports whether this build runs the pinned IEEE operation
// sequence to the bit: true on amd64, where the Go compiler never fuses a
// multiply with an add. Other architectures (arm64, ppc64le, s390x) may
// contract a*b+c into one fused multiply-add, which rounds once instead of
// twice, so there the pins hold to 1e-12 relative and digests are skipped.
const bitExact = runtime.GOARCH == "amd64"

// pinnedEqual compares a diagnostic with its pinned value, to the bit where
// bitExact.
func pinnedEqual(got, want float64) bool {
	if bitExact {
		return got == want
	}
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// stateDigest hashes the bits of every value a checkpoint of this rank would
// carry: the spectral state plus the previous-substep nonlinear terms, which
// are the excursion's output before any implicit solve has smoothed it.
func stateDigest(st *ckpt.State) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, field := range st.Fields {
		for _, col := range field {
			for _, c := range col {
				put(real(c))
				put(imag(c))
			}
		}
	}
	for _, prof := range st.Means {
		for _, v := range prof {
			put(v)
		}
	}
	return h.Sum64()
}

// pinnedCase is one row of TestTrajectoryPinned: a run and the values it
// must reproduce.
type pinnedCase struct {
	name     string
	workload string
	form     Form
	pa, pb   int
	prandtl  float64
	halveDt  bool
	energy   float64
	variance float64 // scalar only
	state    uint64
}

// run advances the case on runner's ranks (mpi.Run or mpi.RunTCP) and returns
// rank 0's diagnostics and state digest; cfl is Workload.CFLEstimate after
// the last step.
func (tc pinnedCase) run(t *testing.T, runner func(int, func(*mpi.Comm)), frozen bool) (energy, variance, cfl float64, state uint64) {
	cfg := Config{Workload: tc.workload, Nonlinear: tc.form, DisableNonlinear: frozen,
		Nx: 16, Ny: 17, Nz: 16, ReTau: 180, Dt: 1e-3, Forcing: 1,
		PA: tc.pa, PB: tc.pb, Prandtl: tc.prandtl}
	if tc.workload == WorkloadIsotropic {
		cfg.Ny, cfg.Forcing = 16, 0
	}
	np := tc.pa * tc.pb
	if np > 1 {
		cfg.Pool = par.NewPool(2)
	}
	runner(np, func(c *mpi.Comm) {
		wl, err := NewWorkload(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		wl.InitDefault(0.3, 7)
		if tc.halveDt {
			Advance(wl, 2)
			wl.SetDt(wl.CurrentDt() / 2)
			Advance(wl, 2)
		} else {
			Advance(wl, 3)
		}
		e := wl.(interface{ TotalEnergy() float64 }).TotalEnergy()
		v := 0.0
		if sc, ok := wl.(*ScalarSolver); ok {
			v = sc.ScalarVariance()
		}
		f := wl.CFLEstimate()
		if c.Rank() == 0 {
			energy, variance, cfl = e, v, f
			state = stateDigest(wl.(interface{ CheckpointState() *ckpt.State }).CheckpointState())
		}
	})
	return energy, variance, cfl, state
}

// check holds a run's diagnostics to the row's pins.
func (tc pinnedCase) check(t *testing.T, energy, variance float64, state uint64) {
	if !pinnedEqual(energy, tc.energy) {
		t.Errorf("energy %x, pinned %x", energy, tc.energy)
	}
	if !pinnedEqual(variance, tc.variance) {
		t.Errorf("scalar variance %x, pinned %x", variance, tc.variance)
	}
	if bitExact && state != tc.state {
		t.Errorf("state digest %#x, pinned %#x", state, tc.state)
	}
}

// TestTrajectoryPinned pins the energy after three steps of every workload
// and every nonlinear form, serial and on 2x2 ranks, to values recorded
// before the dealiased excursion was folded into parfft.Excursion. The
// other trajectory tests compare two runs of the same build; this one
// compares the build with its ancestors (benchmark/golden.json does the same
// for the divergence form only). The energy is dominated by the mean flow, so
// rank 0's state digest is pinned beside it (a digest has no tolerance, so
// only where bitExact). The cases with a Prandtl number or halveDt were
// recorded before the solver skeleton was folded: kappa != nu tells the
// scalar's implicit operators from the momentum ones, and SetDt(dt/2) after
// step 2 of 4 shows an operator cache that was not rebuilt.
// isotropic-2x2's energy was re-recorded one ulp up when mpi.Allreduce began
// to sum in rank order: the old value was one arrival order's sum.
func TestTrajectoryPinned(t *testing.T) {
	cases := []pinnedCase{
		{"channel-divergence-serial", WorkloadChannel, FormDivergence, 1, 1, 0, false, 0x1.0e1a4b87e4304p+12, 0, 0x26299e68186d3416},
		{"channel-divergence-2x2", WorkloadChannel, FormDivergence, 2, 2, 0, false, 0x1.0e1a4b87e4304p+12, 0, 0x2494e211978ddc8c},
		{"channel-convective-serial", WorkloadChannel, FormConvective, 1, 1, 0, false, 0x1.0e1a4b85b61dep+12, 0, 0xc16bd27d52c70fa1},
		{"channel-convective-2x2", WorkloadChannel, FormConvective, 2, 2, 0, false, 0x1.0e1a4b85b61dfp+12, 0, 0x4e7f54248dd4b359},
		{"channel-skew-serial", WorkloadChannel, FormSkewSymmetric, 1, 1, 0, false, 0x1.0e1a4b86cf3acp+12, 0, 0x26c7e27b8ed5c9a},
		{"channel-skew-2x2", WorkloadChannel, FormSkewSymmetric, 2, 2, 0, false, 0x1.0e1a4b86cf3aep+12, 0, 0x36bb1b8f4d5726dc},
		{"isotropic-serial", WorkloadIsotropic, FormDivergence, 1, 1, 0, false, 0x1.68ea48467633fp+03, 0, 0x436115dc2d9047eb},
		{"isotropic-2x2", WorkloadIsotropic, FormDivergence, 2, 2, 0, false, 0x1.68ea48467633ep+03, 0, 0x83fa5579c4572f43},
		{"scalar-serial", WorkloadScalar, FormDivergence, 1, 1, 0, false, 0x1.0e1a4b87e4304p+12, 0x1.26fa60c15868dp+00, 0xf46d310bccc5b927},
		{"scalar-2x2", WorkloadScalar, FormDivergence, 2, 2, 0, false, 0x1.0e1a4b87e4304p+12, 0x1.26fa60c15868fp+00, 0x6ce4920a3c1ea4c},
		{"scalar-pr071-serial", WorkloadScalar, FormDivergence, 1, 1, 0.71, false, 0x1.0e1a4b87e4304p+12, 0x1.26ed0f54a4035p+00, 0x75b178fb8f387f54},
		{"scalar-pr071-1x2", WorkloadScalar, FormDivergence, 1, 2, 0.71, false, 0x1.0e1a4b87e4304p+12, 0x1.26ed0f54a4034p+00, 0x8c36ef00d0db41be},
		{"channel-halfdt-serial", WorkloadChannel, FormDivergence, 1, 1, 0, true, 0x1.0e1a4b9d90592p+12, 0, 0xd3be624c2f2d1c3},
		{"channel-halfdt-1x2", WorkloadChannel, FormDivergence, 1, 2, 0, true, 0x1.0e1a4b9d90593p+12, 0, 0xbae7c471e95dd206},
		{"scalar-pr071-halfdt-serial", WorkloadScalar, FormDivergence, 1, 1, 0.71, true, 0x1.0e1a4b9d90592p+12, 0x1.26eead9015944p+00, 0xe4cd73e45bc9ea4d},
		{"scalar-pr071-halfdt-1x2", WorkloadScalar, FormDivergence, 1, 2, 0.71, true, 0x1.0e1a4b9d90593p+12, 0x1.26eead9015946p+00, 0xdb552e13930a700e},
		{"isotropic-halfdt-serial", WorkloadIsotropic, FormDivergence, 1, 1, 0, true, 0x1.68ea484ebb797p+03, 0, 0x27b2883b131b25b0},
		{"isotropic-halfdt-1x2", WorkloadIsotropic, FormDivergence, 1, 2, 0, true, 0x1.68ea484ebb79p+03, 0, 0xeccd0e274408f59e},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			energy, variance, _, state := tc.run(t, mpi.Run, false)
			tc.check(t, energy, variance, state)
		})
	}

	// Recorded before theta was moved onto the momentum pass: the scalar
	// under the two other forms, the scalar with the convective terms frozen
	// (theta is still advected, so its pass still runs, but no pass harvests
	// physical maxima and CFLEstimate is the spectral bound), and one row over
	// real sockets, which must reproduce the channel transport's
	// scalar-pr071-1x2 row to the bit. CFLEstimate after the last step is
	// pinned beside the rest: the harvest belongs to the pass theta joins.
	more := []struct {
		pinnedCase
		frozen, tcp bool
		cfl         float64
	}{
		{pinnedCase{"scalar-convective-serial", WorkloadScalar, FormConvective, 1, 1, 0, false, 0x1.0e1a4b85b61dep+12, 0x1.26fa60bf708cbp+00, 0xe96fbe880f29c808}, false, false, 0x1.7f199284dd31cp-02},
		{pinnedCase{"scalar-convective-1x2", WorkloadScalar, FormConvective, 1, 2, 0, false, 0x1.0e1a4b85b61dep+12, 0x1.26fa60bf708cbp+00, 0xd70d63e00ebe86c2}, false, false, 0x1.7f199284dd31cp-02},
		{pinnedCase{"scalar-skew-serial", WorkloadScalar, FormSkewSymmetric, 1, 1, 0, false, 0x1.0e1a4b86cf3acp+12, 0x1.26fa60c064758p+00, 0xd62facbd73da9b49}, false, false, 0x1.7f1994457b90dp-02},
		{pinnedCase{"scalar-skew-1x2", WorkloadScalar, FormSkewSymmetric, 1, 2, 0, false, 0x1.0e1a4b86cf3adp+12, 0x1.26fa60c064759p+00, 0xe9728a0639b754af}, false, false, 0x1.7f1994457b90dp-02},
		{pinnedCase{"scalar-frozen-serial", WorkloadScalar, FormDivergence, 1, 1, 0, false, 0x1.0e1a4be31e17ep+12, 0x1.26efd68ed076cp+00, 0xebd2206fe56b05}, true, false, 0x1.91dffb3368d74p-02},
		{pinnedCase{"scalar-frozen-1x2", WorkloadScalar, FormDivergence, 1, 2, 0, false, 0x1.0e1a4be31e17ep+12, 0x1.26efd68ed076cp+00, 0xab83d381f2a135c1}, true, false, 0x1.91dffb3368d75p-02},
		{pinnedCase{"scalar-pr071-1x2-tcp", WorkloadScalar, FormDivergence, 1, 2, 0.71, false, 0x1.0e1a4b87e4304p+12, 0x1.26ed0f54a4034p+00, 0x8c36ef00d0db41be}, false, true, 0x1.7f1995e0feb3ep-02},
	}
	for _, tc := range more {
		t.Run(tc.name, func(t *testing.T) {
			runner := mpi.Run
			if tc.tcp {
				runner = mpi.RunTCP
			}
			energy, variance, cfl, state := tc.run(t, runner, tc.frozen)
			tc.check(t, energy, variance, state)
			if !pinnedEqual(cfl, tc.cfl) {
				t.Errorf("CFL estimate %x, pinned %x", cfl, tc.cfl)
			}
		})
	}
}
