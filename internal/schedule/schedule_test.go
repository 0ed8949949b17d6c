package schedule

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPhaseRoundTrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := PhaseFromString(p.String())
		if !ok || got != p {
			t.Errorf("phase %d: round trip via %q failed", p, p.String())
		}
	}
	if _, ok := PhaseFromString("nope"); ok {
		t.Error("unknown phase name accepted")
	}
	if Phase(200).String() != "unknown" {
		t.Error("out-of-range phase should stringify to unknown")
	}
}

func TestTimestepStructure(t *testing.T) {
	s := Timestep(TimestepParams{Nx: 64, Ny: 65, Nz: 64, PA: 4, PB: 2, Products: 5, PackPasses: 4})
	// Per substep: 4 transposes + 4 reorders + 4 FFT stages + 1 solve.
	if want := 3 * 13; len(s.Ops) != want {
		t.Fatalf("op count %d, want %d", len(s.Ops), want)
	}
	if s.NKx != 32 || s.Ranks != 8 {
		t.Fatalf("identity: nkx=%d ranks=%d", s.NKx, s.Ranks)
	}
	calls := s.CommCallsByDir()
	for _, dir := range []string{DirYtoZ, DirZtoX, DirXtoZ, DirZtoY} {
		if calls[dir] != 3 {
			t.Errorf("%s executed %d times, want 3", dir, calls[dir])
		}
	}
	// Every op carries a canonical phase and a known kind.
	for i, op := range s.Ops {
		if _, ok := PhaseFromString(op.Phase); !ok {
			t.Errorf("op %d: non-canonical phase %q", i, op.Phase)
		}
		switch op.Kind {
		case OpTranspose, OpReorder, OpFFT, OpSolve, OpCollective:
		default:
			t.Errorf("op %d: unknown kind %q", i, op.Kind)
		}
	}
	// Wire bytes: spectral image 16*nkx*nz*ny/ranks, padded 1.5x; per
	// substep 3 fields out + 5 back on each communicator.
	field := 16.0 * 32 * 64 * 65 / 8
	wantB := 3 * (3 + 5) * field // YtoZ + ZtoY per substep
	wantA := wantB * 1.5
	bytesDir := s.CommBytesPerRank()
	if got := bytesDir[DirYtoZ] + bytesDir[DirZtoY]; math.Abs(got-wantB) > 1e-6*wantB {
		t.Errorf("CommB bytes/rank %g, want %g", got, wantB)
	}
	if got := bytesDir[DirZtoX] + bytesDir[DirXtoZ]; math.Abs(got-wantA) > 1e-6*wantA {
		t.Errorf("CommA bytes/rank %g, want %g", got, wantA)
	}
	// Flop total matches the closed form the model has always used.
	mz, mx := 96, 96
	linesZ, linesX := 32.0*65, 96.0*65
	want := 3 * (8*linesZ*FFTFlops(mz, false) + 8*linesX*FFTFlops(mx, true) +
		32.0*64*65*NSFlopsPerPoint)
	if got := s.TotalFlops(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("total flops %g, want %g", got, want)
	}
}

func TestTimestepProductsVaryForwardTraffic(t *testing.T) {
	p5 := Timestep(TimestepParams{Nx: 32, Ny: 33, Nz: 32, PA: 1, PB: 1, Products: 5, PackPasses: 4})
	p6 := Timestep(TimestepParams{Nx: 32, Ny: 33, Nz: 32, PA: 1, PB: 1, Products: 6, PackPasses: 4})
	b5, b6 := p5.CommBytesPerRank(), p6.CommBytesPerRank()
	if b6[DirXtoZ] <= b5[DirXtoZ] || b6[DirZtoY] <= b5[DirZtoY] {
		t.Error("6-product pipeline should move more forward-path bytes")
	}
	if b6[DirYtoZ] != b5[DirYtoZ] {
		t.Error("outbound traffic must not depend on product count")
	}
}

func TestTransposeCycleStructure(t *testing.T) {
	s := TransposeCycle(TransposeCycleParams{Nx: 2048, Ny: 1024, Nz: 2048, PA: 512, PB: 16, Fields: 3})
	if len(s.Ops) != 4 {
		t.Fatalf("op count %d, want 4 (no reorders at PackPasses=0)", len(s.Ops))
	}
	for _, op := range s.Ops {
		if op.Kind != OpTranspose || op.Phase != PhaseTransposeAB.String() {
			t.Fatalf("unexpected op %+v", op)
		}
		if op.Messages != op.CommSize-1 {
			t.Fatalf("%s: messages %d, want comm_size-1=%d", op.Dir, op.Messages, op.CommSize-1)
		}
	}
	if s.TotalFlops() != 0 {
		t.Error("transpose cycle has no flops")
	}
	withPack := TransposeCycle(TransposeCycleParams{Nx: 64, Ny: 32, Nz: 32, NKx: 32,
		PA: 4, PB: 4, Fields: 3, PackPasses: 4})
	if len(withPack.Ops) != 8 {
		t.Fatalf("live cycle op count %d, want 8", len(withPack.Ops))
	}
	if withPack.NKx != 32 {
		t.Fatalf("explicit NKx not honoured: %d", withPack.NKx)
	}
}

func TestFFTCycleKinds(t *testing.T) {
	base := FFTCycleParams{Nx: 2048, Ny: 1024, Nz: 2048, PA: 128, PB: 16, Fields: 1}
	cus, p3d := base, base
	cus.Kind, p3d.Kind = FFTCustom, FFTP3DFFT
	sc, sp := FFTCycle(cus), FFTCycle(p3d)
	if sc.NKx != 1024 || sp.NKx != 1025 {
		t.Fatalf("nkx custom=%d p3dfft=%d", sc.NKx, sp.NKx)
	}
	if !(sp.ResidentBytesPerRank > 2*sc.ResidentBytesPerRank) {
		t.Error("P3DFFT resident footprint should be >2x the custom kernel's")
	}
	// 4 transposes + 4 reorders + 4 FFT stages.
	if len(sc.Ops) != 12 || len(sp.Ops) != 12 {
		t.Fatalf("op counts %d/%d, want 12", len(sc.Ops), len(sp.Ops))
	}
	var passC, passP float64
	for i := range sc.Ops {
		passC += sc.Ops[i].Passes
		passP += sp.Ops[i].Passes
	}
	if passC != 16 || passP != 24 {
		t.Errorf("total pack passes custom=%g p3dfft=%g, want 16/24", passC, passP)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := Timestep(TimestepParams{Nx: 32, Ny: 33, Nz: 32, PA: 2, PB: 2, Products: 6, PackPasses: 4})
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schedule
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(s.Ops) || got.Name != s.Name || got.TotalFlops() != s.TotalFlops() {
		t.Fatal("JSON round trip lost information")
	}
}

func TestWriteHumanReadable(t *testing.T) {
	var buf bytes.Buffer
	Timestep(TimestepParams{Nx: 32, Ny: 33, Nz: 32, PA: 2, PB: 2, Products: 6, PackPasses: 4}).Write(&buf)
	out := buf.String()
	for _, want := range []string{"schedule \"timestep\"", DirYtoZ, "viscous_solve", "totals:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestBuilderDigestsPinned pins the exact op lists of the three timestep
// builders (recorded before their out-and-back sequences were folded onto
// Schedule.excursion): any change to an op's fields, order or flop
// arithmetic moves the digest. The scalar's was regenerated when the program
// it describes changed: theta rides the momentum excursion (4 fields out,
// Products+3 back) where a second excursion (4 out, 3 back) used to follow
// the channel timestep.
func TestBuilderDigestsPinned(t *testing.T) {
	p := TimestepParams{Nx: 16, Ny: 17, Nz: 16, PA: 2, PB: 2, Products: 6, PackPasses: 4}
	cases := []struct {
		name string
		s    *Schedule
		want string
	}{
		{"timestep", Timestep(p), "9c83bd5c93fe28a9979dfcbea53255333fac2cab16b51efbb907686c0909a1bf"},
		{"isotropic", IsotropicTimestep(p), "5504c41bb0aa9bfb51bb46ffa7c59b0fdd10dc3bf97753745610438aac912c30"},
		{"scalar", ScalarTimestep(p), "e1e557e309e28e06a8ecf01702fe3a6a6d36de4581f9769fd002d3fc1841023b"},
	}
	for _, tc := range cases {
		b, err := json.Marshal(tc.s)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
			t.Errorf("%s: digest %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// CommBytesPerRank returns, per transpose direction, the payload one rank
// contributes over the whole schedule (wire ops only; reorders move the
// same bytes on-node and are excluded).
func (s *Schedule) CommBytesPerRank() map[string]float64 {
	out := map[string]float64{}
	for _, op := range s.Ops {
		if op.Kind == OpTranspose {
			out[op.Dir] += op.BytesPerRank
		}
	}
	return out
}

// CommCallsByDir returns the number of wire-transpose executions per
// direction.
func (s *Schedule) CommCallsByDir() map[string]int {
	out := map[string]int{}
	for _, op := range s.Ops {
		if op.Kind == OpTranspose {
			out[op.Dir]++
		}
	}
	return out
}
