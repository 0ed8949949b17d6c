package core

import (
	"fmt"

	"channeldns/internal/parfft"
	"channeldns/internal/telemetry"
)

// Alternative nonlinear-term forms. The paper evaluates the convective
// terms in divergence form, N_i = -d(u_i u_j)/dx_j (steps (g)-(h) of §2.3).
// This file adds the convective form N_i = -u_j du_i/dx_j and the
// skew-symmetric average of the two. Analytically all three are identical
// for divergence-free fields; discretely they differ through the wall-
// normal collocation (pointwise products alias in y), and the
// skew-symmetric form conserves energy much more faithfully at marginal
// resolution — the standard remedy in spectral DNS practice. The form is an
// ablation axis in DESIGN.md §7.

// Form selects the discrete form of the convective terms.
type Form int

// Convective-term forms.
const (
	// FormDivergence is the paper's form: -d(u_i u_j)/dx_j via six
	// quadratic products.
	FormDivergence Form = iota
	// FormConvective is -u_j du_i/dx_j via nine velocity-gradient fields.
	FormConvective
	// FormSkewSymmetric averages the two, conserving energy discretely.
	FormSkewSymmetric
)

// formNames maps the canonical command-line / job-spec spellings onto the
// forms; ParseForm and Form.String are its two directions.
var formNames = map[string]Form{
	"divergence": FormDivergence,
	"convective": FormConvective,
	"skew":       FormSkewSymmetric,
}

// ParseForm resolves the canonical spelling of a convective form
// ("divergence", "convective", "skew"); "" selects the paper's divergence
// form. Both cmd/dns and the job server's serializable specs go through
// this, so the two front ends cannot drift.
func ParseForm(name string) (Form, error) {
	if name == "" {
		return FormDivergence, nil
	}
	f, ok := formNames[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown nonlinear form %q (divergence | convective | skew)", name)
	}
	return f, nil
}

// String returns the canonical spelling ParseForm accepts.
func (f Form) String() string {
	for name, v := range formNames {
		if v == f {
			return name
		}
	}
	return fmt.Sprintf("Form(%d)", int(f))
}

// convectiveForm is the excursion pass of the convective form: u, v, w and
// their y derivatives go out, the z and x derivatives of u, v, w are formed
// on the way, and H_i = -u_j du_i/dx_j for i = x, y, z comes back.
var convectiveForm = parfft.Spec{In: 6, Grad: 3, Out: 3, Harvest: true, Kernel: convectiveH}

// convectiveH forms H_c on a block of physical x lines from phys = u v w,
// uy vy wy and the z and x derivatives of u v w.
func convectiveH(out []float64, c int, phys, dz, dx [][]float64) {
	n := len(out)
	u, v, w := phys[0][:n], phys[1][:n], phys[2][:n]
	gx, gy, gz := dx[c][:n], phys[3+c][:n], dz[c][:n]
	for i := range out {
		out[i] = -(u[i]*gx[i] + v[i]*gy[i] + w[i]*gz[i])
	}
}

// convectiveTerms assembles h_g and h_v from convective-form H values:
//
//	h_g = i*kz*H_x - i*kx*H_z
//	h_v = -k2*H_y - d/dy(i*kx*H_x + i*kz*H_z)
//
// plus the mean forcing profiles (H_x and H_z at kx = kz = 0 directly),
// written into the caller-provided output buffers.
func (s *Solver) convectiveTerms(hg, hv [][]complex128, meanHx, meanHz []float64) {
	ny := s.Cfg.Ny
	ws := s.ws
	h := s.pass(&convectiveForm)
	sp := s.tel.Begin(telemetry.PhaseNonlinear)
	s.pool().ForBlocksIndexed(s.nw, func(blk, wlo, whi int) {
		wk := &ws.workers[blk]
		p := wk.ln[0]
		tmp := wk.ln[1]
		sol := wk.ln[2]
		for w := wlo; w < whi; w++ {
			ikx, ikz := s.modeOf(w)
			if s.G.IsNyquistZ(ikz) || (ikx == 0 && ikz == 0) {
				continue
			}
			kx, kz := s.G.Kx(ikx), s.G.Kz(ikz)
			k2 := kx*kx + kz*kz
			base := w * ny
			ikxC := complex(0, kx)
			ikzC := complex(0, kz)
			hgw, hvw := hg[w], hv[w]
			for i := 0; i < ny; i++ {
				hgw[i] = ikzC*h[0][base+i] - ikxC*h[2][base+i]
				p[i] = ikxC*h[0][base+i] + ikzC*h[2][base+i]
			}
			s.ddy(tmp, 1, p, sol)
			ck2 := complex(k2, 0)
			for i := 0; i < ny; i++ {
				hvw[i] = -ck2*h[1][base+i] - tmp[i]
			}
		}
	})
	if s.ownsMean {
		w00 := s.widx(0, 0)
		base := w00 * ny
		for i := 0; i < ny; i++ {
			meanHx[i] = real(h[0][base+i])
			meanHz[i] = real(h[2][base+i])
		}
	}
	sp.End()
}
