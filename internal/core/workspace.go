package core

// The steady-state workspace arena. Every per-substep buffer the per-mode
// loops (velocity evaluation, right-hand-side assembly, implicit advance)
// need is allocated once here, at Solver construction, and reused for the
// life of the run; the field buffers of the dealiased pipeline live in
// parfft.Excursion under the same discipline. After the first step the only
// heap traffic per substep is the handful of closure headers created when
// loops are handed to the worker pool (see the steady-state allocation
// test).
//
// hg/hv (and the mean forcing profiles) are double-buffered: the "current"
// buffer is written each substep and then swapped with the Solver's
// previous-substep buffer, replacing the seed's allocate-per-substep
// pattern.

// wsWorker is one worker's private line scratch, selected by the block id
// of ForBlocksIndexed (always < Pool.Workers()). The per-wavenumber loops
// never run concurrently with each other, so they share it.
type wsWorker struct {
	// Ny-length complex line scratch.
	ln [5][]complex128
	// Ny-length real scratch (mean-profile evaluation).
	rl []float64
}

// solverWS is the arena owned by one Solver.
type solverWS struct {
	// Current-substep nonlinear terms, swapped with Solver.hgPrev/hvPrev
	// (and the mean equivalents) after each substep.
	hgCur, hvCur         [][]complex128
	meanHxCur, meanHzCur []float64

	// Second output set for the skew-symmetric average, built on first use.
	hgAlt, hvAlt         [][]complex128
	meanHxAlt, meanHzAlt []float64

	// Serial scratch for the owner rank's mean-mode work.
	meanS0, meanS1 []float64

	workers []wsWorker
}

// newWorkspace sizes the arena from the solver's local wavenumber window.
func (s *Solver) newWorkspace() *solverWS {
	ny := s.Cfg.Ny
	ws := &solverWS{
		hgCur: allocCoef(s.nw, ny),
		hvCur: allocCoef(s.nw, ny),

		meanS0: make([]float64, ny),
		meanS1: make([]float64, ny),
	}
	if s.ownsMean {
		ws.meanHxCur = make([]float64, ny)
		ws.meanHzCur = make([]float64, ny)
	}

	ws.workers = make([]wsWorker, s.pool().Workers())
	for i := range ws.workers {
		w := &ws.workers[i]
		for j := range w.ln {
			w.ln[j] = make([]complex128, ny)
		}
		w.rl = make([]float64, ny)
	}
	return ws
}

// ensureAlt builds the second nonlinear-output set the skew-symmetric form
// combines with the first.
func (s *Solver) ensureAlt() {
	ws := s.ws
	if ws.hgAlt != nil {
		return
	}
	ny := s.Cfg.Ny
	ws.hgAlt = allocCoef(s.nw, ny)
	ws.hvAlt = allocCoef(s.nw, ny)
	if s.ownsMean {
		ws.meanHxAlt = make([]float64, ny)
		ws.meanHzAlt = make([]float64, ny)
	}
}
